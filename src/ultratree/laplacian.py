"""Cylinder measures, averaged tree Laplacians and their spectra.

A measure on the boundary is a product of child probabilities at the
branching words, the only words with a choice; it is drawn there alone,
and its masses are keyed by leaf range, the layer's one coordinate, so no
route builds the word levels or slices a word.  The operator acts on
functions that are constant on depth-N cylinders; its action on the
indicator of a leaf gamma collects, over the levels n along gamma, the
weight w_n = rho(L_n)/L_n^2 with L_n = delta_{n-1} the sibling edge
length at level n.  Two independent assembly routes exist: the
closed-form action on indicators, and the bilinear Dirichlet form over
sibling pairs; the tests hold them to agreement.  Every route, the
restricted-pair variant and the scalar form included, reads one frame
(_frame) and the forks, the branching words with their children's leaf
ranges (LanguageTable.forks), the only children with siblings, and the
pair routes one list of sibling range pairs (_sibling_pairs); the
Dirichlet oracle is built from that list alone, not from the indicator
route.

Assembly is dtype generic.  With rational child weights and an integer
density exponent everything stays in exact Fractions, so conservation and
self-adjointness hold exactly.
An off-diagonal entry has one value per (sibling subtree, leaf column)
block: the sibling subtrees of a leaf's ancestors partition the other
leaves, and sibling pairs partition the ordered off-diagonal leaf pairs.
So each block value is computed once and written into its block by slice
assignment.  The exact checks (conservation, self-adjointness, route
differences) read values, not objects: they run on one integer view of
the entries' numerators and denominators, and Fractions are formed only
where two entries differ.  The float view of an exact matrix divides each
numerator of that view by its denominator, and a float matrix is checked
on its float view pair by pair in plain Python.

The spectrum is read from one small block per fork, not from a dense
eigensolve of the whole matrix, which only the tests keep as an oracle;
its eigenvalues must sum to the trace.  The forks are the tree's, kept on
the matrix, and numpy loads only to solve a block of three or more
children.
"""

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import (chain, combinations, compress, count, pairwise,
                       repeat, starmap)
from operator import (add, attrgetter, itemgetter, mul, ne, or_, sub,
                      truediv)

# defined in the package root, so that the CLI names it without loading
# this module, and re-exported here
from . import InvariantViolationError


class InvalidMeasureError(ValueError):
    pass


def _fold(values):
    """values added left to right from 0: the built-in sum() before Python
    3.12, which from 3.12 on adds floats with compensated summation and so
    gives other bits."""
    return reduce(add, values, 0)


# ---------------------------------------------------------------------------
# measures


def cylinder_measure(tree, weights=None, seed=None):
    """The masses of the cylinders the operators read, from child
    probabilities, keyed by leaf range (lo, hi): the root (0, n), each
    branching word's children and each leaf (i, i + 1).

    weights may be None (uniform over children), a dict mapping a parent
    word to a probability list in child sort order, or "random" for
    positive rational weights drawn from the seed, one list per branching
    word by level, lexicographic within a level.  Only a branching word
    has a choice; any other word passes its mass to its one child, and a
    dict may leave it out or give it [1], which multiplies the mass of its
    leaf range in place.
    """
    leaves, forks = tree.sorted_leaves, tree.forks
    rng = random.Random(seed) if weights == "random" else None
    entries = dict(forks)
    if rng is None and weights is not None:
        # a dict's entry at a word of the tree that does not branch is
        # checked too, over the leaves that start with that word
        for v in weights.keys() - forks.keys():
            prefix = itemgetter(slice(len(v)))
            lo = bisect_left(leaves, v, key=prefix)
            hi = bisect_right(leaves, v, lo, key=prefix)
            if lo < hi and len(v) < tree.depth:
                entries[v] = (lo, hi)
    mass = {(0, len(leaves)): Fraction(1)}
    for v in sorted(entries, key=lambda v: (len(v), v)):
        bounds = entries[v]
        kids = list(pairwise(bounds))
        if rng is not None:
            raw = [rng.randint(1, 100) for _ in kids]
            probs = [Fraction(r, sum(raw)) for r in raw]
        elif weights is None:
            probs = [Fraction(1, len(kids))] * len(kids)
        else:
            probs = _child_weights(v, weights.get(v), len(kids))
        parent = mass[bounds[0], bounds[-1]]
        mass.update(zip(kids, (parent * p for p in probs)))
    return mass


def _child_weights(v, probs, arity):
    """A dict's probabilities for the children of v, refused when missing,
    of another arity, not positive or not summing to one (exactly for
    rationals, to 1e-12 for floats)."""
    if probs is None:
        raise InvalidMeasureError("no weights for %r" % v)
    probs = list(probs)
    if len(probs) != arity:
        raise InvalidMeasureError("weights for %r have wrong arity" % v)
    for p in probs:
        if not p > 0:  # NaN included
            raise InvalidMeasureError("non-positive child weight at %r" % v)
    total = _fold(probs)
    exact = all(isinstance(p, (Fraction, int)) for p in probs)
    if (exact and total != 1) or (not exact and abs(total - 1.0) > 1e-12):
        raise InvalidMeasureError("child weights at %r sum to %r" % (v, total))
    return probs


def density(s):
    """The density rho(delta) = delta^s of an exponent s.

    Integer exponents, given as int or float, keep Fraction inputs exact.
    """
    if s < 0:
        raise ValueError("density exponent must be >= 0")
    if not math.isfinite(s):
        raise ValueError("density exponent must be finite")
    if float(s).is_integer():
        si = int(s)
        return lambda x: x ** si
    return lambda x: float(x) ** float(s)


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class LaplacianMatrix:
    """Operator matrix on depth-N cylinder indicators.

    rows[i][j] is the coefficient of leaf i in the image of the leaf-j
    indicator and mu_leaves the cylinder masses in leaf order, both kept in
    the assembly's own arithmetic (Fractions when the inputs were rational);
    forks are the tree's (LanguageTable.forks), which the spectrum reads.
    """

    leaves: tuple
    rows: tuple = field(compare=False)
    mu_leaves: tuple = field(compare=False)
    forks: dict = field(compare=False)

    @cached_property
    def integers(self):
        """The integer view of an exact matrix, None when an entry or a mass
        is a float: per row a pair (numerators, denominators), then the
        numerators and the denominators of the masses."""
        types = set(map(type, self.mu_leaves))
        for r in self.rows:
            types.update(map(type, r))
        if not all(issubclass(t, (int, Fraction)) for t in types):
            return None
        num, den = attrgetter("numerator"), attrgetter("denominator")
        return (tuple((tuple(map(num, r)), tuple(map(den, r)))
                      for r in self.rows),
                tuple(map(num, self.mu_leaves)),
                tuple(map(den, self.mu_leaves)))

    @cached_property
    def floats(self):
        """The rows in floats: an exact matrix's divide each numerator of its
        integer view by its denominator, the bits of float(Fraction)."""
        view = self.integers
        if view is None:
            return tuple(tuple(map(float, r)) for r in self.rows)
        return tuple(tuple(map(truediv, nums, dens)) for nums, dens in view[0])

    @cached_property
    def defects(self):
        """(max |row sum|, max |mu_i M_ij - mu_j M_ji|) in assembly
        arithmetic, computed on first use.

        An exact matrix sums its rows and compares mu_i M_ij with mu_j M_ji
        in integers; a defect is formed in Fractions only where they
        differ.  A float matrix takes its pair defects from the pairs of
        _mu_pairs, the largest folded from 0.0 so that a NaN defect is
        passed over, and its row sums added left to right (_fold), so the
        bits are the same on every Python.
        """
        rows, mu = self.rows, self.mu_leaves
        view = self.integers
        if view is None:
            row = max((abs(_fold(r)) for r in rows), default=0)
            return row, max(chain((0.0,), map(abs, starmap(
                sub, _mu_pairs(self)))))
        # each row summed over the least common multiple of all the entries'
        # denominators, with one scale factor per distinct denominator
        int_rows, mu_num, mu_den = view
        denominators = set().union(*(row_dens for _, row_dens in int_rows))
        common = math.lcm(*denominators)
        factor = {d: common // d for d in denominators}.__getitem__
        sums = (sum(map(mul, nums, map(factor, row_dens)))
                for nums, row_dens in int_rows)
        row = max((Fraction(abs(s), common) for s in sums if s), default=0)
        # mu_i p_ij / q_ij = mu_j p_ji / q_ji, cross-multiplied
        cols_num = zip(*(nums for nums, _ in int_rows))
        cols_den = zip(*(dens for _, dens in int_rows))
        adj = 0
        for i, ((nums, dens), col_num, col_den) in enumerate(
                zip(int_rows, cols_num, cols_den)):
            k = i + 1
            left = map(mul, map(mul, nums[k:], col_den[k:]),
                       map(mul, mu_den[k:], repeat(mu_num[i])))
            right = map(mul, map(mul, dens[k:], col_num[k:]),
                        map(mul, mu_num[k:], repeat(mu_den[i])))
            for j in compress(count(k), map(ne, left, right)):
                adj = max(adj, abs(mu[i] * rows[i][j] - mu[j] * rows[j][i]))
        return row, adj


def _frame(tree, mu, rho, delta):
    """What every assembly route reads: the level weights w (w[n] for
    n = 1..N), the sorted leaves and the leaf masses, once mu is checked to
    hold the mass of each leaf and of each branching word's children, read
    at their leaf ranges; a missing one is reported by its word.

    w_n = rho(L_n) / L_n^2 with L_n = delta_{n-1} the length of sibling
    edges at level n; floats convert to Fractions exactly, so
    integer-exponent densities keep the whole assembly rational.  The
    weights come first, so a too-small delta is reported before a missing
    mass.
    """
    rho_fn = density(rho)
    w = [None]
    for n in range(1, tree.depth + 1):
        L = Fraction(delta[n - 1])
        try:
            w.append(rho_fn(L) / (L * L))
        except ZeroDivisionError:
            raise ValueError("delta_%d = %r is too small for the level weight"
                             % (n - 1, delta[n - 1])) from None
    leaves = tree.leaves()
    named = chain(((x, (i, i + 1)) for i, x in enumerate(leaves)),
                  ((leaves[lo][:len(v) + 1], (lo, hi))
                   for v, bounds in tree.forks.items()
                   for lo, hi in pairwise(bounds)))
    for x, c in named:
        if c not in mu:
            raise InvalidMeasureError("measure missing mass for %r" % x)
    return w, leaves, [mu[i, i + 1] for i in range(len(leaves))]


def _sibling_pairs(tree, mu, mode):
    """(level, u, v, coefficient) for sibling pairs, u and v their leaf
    ranges, fork by fork in lexicographic order: each leaf meets the pairs
    above it level by level, and each level its pairs in order.

    mode "all" takes every pair with coefficient 1 (the averaged operator);
    "single" the first pair of each branching node; "nu-average" every pair
    weighted by mu(u) mu(v) / sum of mu mu over the node's pairs.
    """
    out = []
    for v, bounds in tree.forks.items():
        n = len(v) + 1
        pairs = list(combinations(pairwise(bounds), 2))
        if mode == "nu-average":
            norm = _fold(mu[a] * mu[b] for a, b in pairs)
            out += [(n, a, b, mu[a] * mu[b] / norm) for a, b in pairs]
        else:
            out += [(n, a, b, 1)
                    for a, b in (pairs[:1] if mode == "single" else pairs)]
    return out


def assemble_laplacian(tree, mu, rho, delta):
    """Matrix of the averaged operator via its action on leaf indicators.

    For a leaf gamma with ancestors gamma_n, the image of its indicator is
    sum over levels n of  w_n / mu(gamma_n) * ( a(gamma_{n-1}) chi_gamma
    - mu(gamma) * sum over siblings u of gamma_n of chi_u / mu(u) ).
    Only a branching parent (a > 0) adds a term, and the branching words
    come in lexicographic order, so each column meets those on its path
    level by level.  The sibling subtrees u partition the leaves other than
    gamma, so each column is written block by block, then transposed.
    """
    w, leaves, mu_leaf = _frame(tree, mu, rho, delta)
    size = len(leaves)
    cols = [[0] * size for _ in leaves]
    for parent, bounds in tree.forks.items():
        n, kids = len(parent) + 1, list(pairwise(bounds))
        a_parent = len(kids) - 1
        for node in kids:
            factor = w[n] / mu[node]
            for j in range(*node):
                col, mu_gamma = cols[j], mu_leaf[j]
                col[j] += factor * a_parent  # no sibling block covers j
                for u in kids:
                    if u != node:
                        col[u[0]:u[1]] = [0 - factor * mu_gamma / mu[u]] * (
                            u[1] - u[0])
    return LaplacianMatrix(leaves, tuple(zip(*cols)), tuple(mu_leaf),
                           tree.forks)


def _assemble_bilinear(tree, mu, rho, delta, pair_list):
    """Form matrix A with Q(f, g) = f^T A g, returned as M = D^{-1} A.

    Per pair (u, v) the form contributes the diagonal subtree-expectation
    parts on the two blocks, A_ii += c mu_i / mu(u) for i under u, and the
    independence cross terms between them, A_ik = -c mu_i mu_k / (mu(u)
    mu(v)) for i under u and k under v.  The pairs cover each ordered
    off-diagonal leaf pair at most once, so in exact arithmetic every row of
    u carries the same block -(c / (mu(u) mu(v))) mu_k of M, computed once
    and shared, and M_ii is the sum of c / mu(u).  Float entries keep the
    rounding of A followed by the division, row by row.
    """
    w, leaves, mu_leaf = _frame(tree, mu, rho, delta)
    size = len(leaves)
    exact = all(isinstance(x, (int, Fraction)) for x in chain(w[1:], mu_leaf))
    m = mu_leaf if exact else [float(x) for x in mu_leaf]
    rows = [[0] * size for _ in range(size)]
    diag = [0] * size
    for n, u1, u2, coeff in pair_list:
        c = coeff * w[n]
        for u, other in ((u1, u2), (u2, u1)):
            (lo, hi), (olo, ohi) = u, other
            cu = c / mu[u]
            cc = cu / mu[other]
            if exact:
                block = [-(cc * x) for x in m[olo:ohi]]
                for i in range(lo, hi):
                    diag[i] += cu
                    rows[i][olo:ohi] = block
                continue
            for i in range(lo, hi):
                diag[i] += cu * m[i]
                fi = cc * m[i]
                rows[i][olo:ohi] = [(0 - fi * x) / m[i] for x in m[olo:ohi]]
    for i in range(size):
        rows[i][i] = diag[i] if exact else diag[i] / mu_leaf[i]
    return LaplacianMatrix(leaves, tuple(map(tuple, rows)), tuple(mu_leaf),
                           tree.forks)


def assemble_laplacian_dirichlet(tree, mu, rho, delta):
    """Independent assembly route through the Dirichlet form."""
    return _assemble_bilinear(tree, mu, rho, delta,
                              _sibling_pairs(tree, mu, "all"))


def assemble_pb_laplacian(tree, mu, rho, delta, pair_selection="single"):
    """Restricted-edge variant: the first sibling pair of each branching
    node ("single") or the measure-weighted average over all pairs
    ("nu-average").  Coincides with the full operator when every branching
    node has exactly two children.
    """
    if pair_selection not in ("single", "nu-average"):
        raise ValueError("unknown pair selection %r" % pair_selection)
    return _assemble_bilinear(tree, mu, rho, delta,
                              _sibling_pairs(tree, mu, pair_selection))


def dirichlet_form_value(tree, mu, rho, delta, f, g):
    """Q(f, g) for cylinder coefficient vectors f and g.

    Per level and sibling pair (u, v) the contribution is
    E(f_u g_u) + E(f_v g_v) - E(f_u) E(g_v) - E(f_v) E(g_u), subtree
    expectations taken against the normalized cylinder measure; disjoint
    subtrees are independent, which turns the paired expectation into the
    product of the two one-sided ones.
    """
    N = tree.depth
    w, leaves, mu_leaf = _frame(tree, mu, rho, delta)
    if len(f) != len(leaves) or len(g) != len(leaves):
        raise ValueError("coefficient vectors must match the leaf count")
    fw = [f[i] * mu_leaf[i] for i in range(len(leaves))]
    gw = [g[i] * mu_leaf[i] for i in range(len(leaves))]
    fgw = [f[i] * g[i] * mu_leaf[i] for i in range(len(leaves))]

    def block(vec, u):
        return _fold(vec[u[0]:u[1]]) / mu[u]

    level_sums = [0] * (N + 1)
    for n, u1, u2, _ in _sibling_pairs(tree, mu, "all"):
        level_sums[n] += (block(fgw, u1) + block(fgw, u2)
                          - block(fw, u1) * block(gw, u2)
                          - block(fw, u2) * block(gw, u1))
    total = 0
    for n in range(1, N + 1):
        total += w[n] * level_sums[n]
    return total


# ---------------------------------------------------------------------------
# invariants and spectra


def check_invariants(lap, tol=1e-12):
    """Verify conservation and self-adjointness with respect to mu.

    Runs on the matrix in its assembly arithmetic, so rationally assembled
    operators are checked exactly; the defects are computed once per matrix
    and each call applies its own tolerance.  A defect passes within tol, or
    within tol times the size of the terms it cancels (sum_j |M_ij| for a
    row, |mu_i M_ij| + |mu_j M_ji| for a pair): float entries reach 1e10,
    where rounding alone leaves absolute defects far above 1e-12.  That
    test runs only where the absolute maximum fails; the reported maxima
    stay absolute.
    """
    row, adj = lap.defects
    return {"max_row_sum": float(row),
            "max_self_adjoint_defect": float(adj),
            "row_ok": bool(row <= tol or all(
                abs(_fold(r)) <= tol * max(1, _fold(map(abs, r)))
                for r in lap.rows)),
            "adjoint_ok": bool(adj <= tol or _pairs_within(lap, tol))}


def _mu_pairs(lap):
    """(mu_i M_ij, mu_j M_ji) for each pair i < j, row by row: in the
    assembly's arithmetic for an exact matrix, and in floats for a float
    one, each entry and mass converted once."""
    rows, mu = lap.rows, lap.mu_leaves
    if lap.integers is None:
        rows, mu = lap.floats, [float(x) for x in mu]
    return ((mu[i] * r[j], mu[j] * col[j])
            for i, (r, col) in enumerate(zip(rows, zip(*rows)))
            for j in range(i + 1, len(rows)))


def _pairs_within(lap, tol):
    """Whether every pair defect of _mu_pairs is within tol times the terms
    it cancels; a NaN defect is not."""
    return all(abs(x - y) <= tol * max(1, abs(x) + abs(y))
               for x, y in _mu_pairs(lap))


def matrix_difference(lap_a, lap_b):
    """Largest entrywise difference, in assembly arithmetic.

    Exact matrices skip the rows whose integer views are equal and take
    Fraction differences only at the entries that differ."""
    if lap_a.leaves != lap_b.leaves:
        raise ValueError("matrices index different leaf sets")
    view_a, view_b = lap_a.integers, lap_b.integers
    if view_a is None or view_b is None:
        return float(max((abs(x - y)
                          for ra, rb in zip(lap_a.rows, lap_b.rows)
                          for x, y in zip(ra, rb)), default=0))
    worst = 0
    for ra, rb, ia, ib in zip(lap_a.rows, lap_b.rows, view_a[0], view_b[0]):
        if ia != ib:
            differ = map(or_, map(ne, ia[0], ib[0]), map(ne, ia[1], ib[1]))
            worst = max(worst, max(abs(x - y) for x, y in
                                   compress(zip(ra, rb), differ)))
    return float(worst)


def _fork_blocks(lap):
    """One block per fork of the tree (Pearson and Bellissard 2009), read
    from the forks kept on the matrix: for each branching word v in
    lexicographic order, (R(v), mu(v), m, k) in the matrix's arithmetic,
    with m[i] = mu(c_i) the masses of v's children and k[i][j] = M[x][y] /
    mu_y (i != j) for the first leaves x of c_i and y of c_j; k is
    symmetric, since mu_x M_xy = mu_y M_yx, and its diagonal is 0.

    A function constant on each child of v, of mu-mean zero and 0 off v's
    leaves, is mapped to R(v) f_i + sum_j k_ij m_j (f_j - f_i) on c_i: the
    sibling blocks below v sum to zero against a constant (rows conserve),
    those above against a mean-zero function, and R(v) is the diagonal that
    the forks above v add.  So R(root) = 0 and R(c_i) = R(v) - sum_{j != i}
    k_ij m_j, constant down a stretch of words that do not branch.  These
    functions and the constants span every function on the leaves.
    """
    leaves, rows, mu = lap.leaves, lap.rows, lap.mu_leaves
    forks = lap.forks.values()
    # a child of two or more leaves has the leaf range of the fork below it,
    # which comes later in lexicographic order
    mass = {}
    for bounds in reversed(forks):
        mass[bounds[0], bounds[-1]] = reduce(add, (mass.get(c, mu[c[0]])
                                                   for c in pairwise(bounds)))
    R = {(0, len(leaves)): 0}
    for bounds in forks:
        r = R.pop((bounds[0], bounds[-1]))
        kids = list(pairwise(bounds))
        m = [mass.get(c, mu[c[0]]) for c in kids]
        k = [[0] * len(kids) for _ in kids]
        for (i, (x, _)), (j, (y, _)) in combinations(enumerate(kids), 2):
            k[i][j] = k[j][i] = rows[x][y] / mu[y]
        for i, c in enumerate(kids):
            if c[1] - c[0] > 1:
                R[c] = reduce(sub, (k[i][j] * m[j]
                                    for j in range(len(m)) if j != i), r)
        yield r, mass[bounds[0], bounds[-1]], m, k


def spectrum(lap):
    """Ascending eigenvalues of the measure-symmetrized matrix, as floats
    with exactly one 0.0, read from one block per fork (_fork_blocks).

    The block of a fork v is R(v) plus the non-zero eigenvalues of
    D^{-1/2} L D^{-1/2}, L the Laplacian of the complete graph on v's
    children weighted by -k_ij m_i m_j >= 0 and D = diag(m), whose least
    eigenvalue is the 0 of the constants.  A binary fork has the one
    eigenvalue R(v) - k_01 mu(v), computed in the matrix's arithmetic and
    rounded to a float once; numpy solves the forks with three or more
    children, and only those.  One entry is read per sibling block, so the
    result holds for the operators this module assembles, whose k_ij are
    constant on each block.  The pre-check does not test that; a matrix
    whose eigenvalues do not sum to its trace within its tolerance, 1e-8
    relative, is refused: a necessary condition, which a matrix of another
    structure can still meet.
    """
    checks = check_invariants(lap, tol=1e-8)
    if not (checks["row_ok"] and checks["adjoint_ok"]):
        raise InvariantViolationError(
            "matrix fails pre-checks: %r" % (checks,))
    out, blocks = [0.0], {}
    for r, mass, m, k in _fork_blocks(lap):
        if len(m) == 2:
            out.append(float(r - k[0][1] * mass))
            continue
        m, k = list(map(float, m)), [list(map(float, ki)) for ki in k]
        sym = [[kij * math.sqrt(mi * mj) for kij, mj in zip(ki, m)]
               for ki, mi in zip(k, m)]
        for i, ki in enumerate(k):
            sym[i][i] = -_fold(map(mul, ki, m))
        blocks.setdefault(len(m), []).append((float(r), sym))
    if blocks:
        # imported here so that binary trees need no eigensolve
        import numpy as np
        for same in blocks.values():  # the blocks of one size in one call
            rs, syms = zip(*same)
            ev = np.linalg.eigvalsh(syms)[:, 1:]
            out += (np.array(rs)[:, None] + ev).ravel().tolist()
    total = math.fsum(out)
    trace = math.fsum(float(r[i]) for i, r in enumerate(lap.rows))
    if not math.isclose(total, trace, rel_tol=1e-8, abs_tol=1e-8):
        raise InvariantViolationError(
            "block eigenvalues sum to %r, the trace is %r" % (total, trace))
    return tuple(sorted(out))
