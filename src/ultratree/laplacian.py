"""Cylinder measures, averaged tree Laplacians and their spectra.

A measure on the boundary is a product of per-node child probabilities.
The operator acts on functions that are constant on depth-N cylinders; its
action on the indicator of a leaf gamma collects, over the levels n along
gamma, the weight w_n = rho(L_n)/L_n^2 with L_n = delta_{n-1} the sibling
edge length at level n.  Two independent assembly routes exist: the
closed-form action on indicators, and the bilinear Dirichlet form over
sibling pairs; the tests hold them to agreement.

Assembly is dtype generic.  With rational child weights and an integer
density exponent everything stays in exact Fractions, so conservation and
self-adjointness hold exactly; the float view of the matrix is used for
eigenvalue work only.
"""

import math
import random
from fractions import Fraction
from dataclasses import dataclass, field

import numpy as np

from .tree import horizontal_edges


class InvalidMeasureError(ValueError):
    pass


class InvalidSelectionError(ValueError):
    pass


class InvariantViolationError(RuntimeError):
    """An assembled matrix failed a structural pre-check."""


# ---------------------------------------------------------------------------
# measures


def cylinder_measure(tree, weights=None, seed=None):
    """Masses of all cylinders from per-node child probabilities.

    weights may be None (uniform over children), a dict mapping a parent
    word to a probability list in child sort order, or the string "random"
    for positive rational weights drawn from the given seed.  Probabilities
    must sum to one per node (exactly for rationals, to 1e-12 for floats).
    Returns a dict from word to mass; the root has mass 1.
    """
    rng = random.Random(seed) if weights == "random" else None
    mu = {"": Fraction(1)}
    for n in range(tree.depth):
        for v in tree.levels[n]:
            cs = tree.children[v]
            if rng is not None:
                raw = [rng.randint(1, 100) for _ in cs]
                total = sum(raw)
                probs = [Fraction(r, total) for r in raw]
            elif weights is None:
                probs = [Fraction(1, len(cs))] * len(cs)
            else:
                if v not in weights:
                    raise InvalidMeasureError("no weights for %r" % v)
                probs = list(weights[v])
                if len(probs) != len(cs):
                    raise InvalidMeasureError(
                        "weights for %r have wrong arity" % v)
            for p in probs:
                if not p > 0:  # NaN included
                    raise InvalidMeasureError(
                        "non-positive child weight at %r" % v)
            total = sum(probs)
            exact = all(isinstance(p, (Fraction, int)) for p in probs)
            if (exact and total != 1) or (not exact and
                                          abs(total - 1.0) > 1e-12):
                raise InvalidMeasureError(
                    "child weights at %r sum to %r" % (v, total))
            for c, p in zip(cs, probs):
                mu[c] = mu[v] * p
    return mu


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


def _level_weights(rho, delta, N):
    # w_n = rho(L_n) / L_n^2 with L_n the length of sibling edges at level
    # n; floats convert to Fractions exactly, so integer-exponent densities
    # keep the whole assembly rational
    rho_fn = density(rho)
    out = [None]
    for n in range(1, N + 1):
        L = Fraction(delta[n - 1])
        try:
            out.append(rho_fn(L) / (L * L))
        except ZeroDivisionError:
            raise ValueError("delta_%d = %r is too small for the level weight"
                             % (n - 1, delta[n - 1])) from None
    return out


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True)
class LaplacianMatrix:
    """Operator matrix on depth-N cylinder indicators.

    rows[i][j] is the coefficient of leaf i in the image of the leaf-j
    indicator, kept in the assembly's own arithmetic (Fractions when the
    inputs were rational); matrix is the float view and mu_leaves the
    cylinder masses in leaf order.
    """

    depth: int
    leaves: tuple
    rows: tuple = field(compare=False)
    mu_leaves: tuple = field(compare=False)

    @property
    def matrix(self):
        cached = self.__dict__.get("_float")
        if cached is None:
            cached = np.array([[float(x) for x in r] for r in self.rows])
            self.__dict__["_float"] = cached
        return cached

    @property
    def mu_float(self):
        return np.array([float(m) for m in self.mu_leaves])

    @property
    def defects(self):
        """(max |row sum|, max |mu_i M_ij - mu_j M_ji|) in assembly
        arithmetic, computed on first use like the float view."""
        cached = self.__dict__.get("_defects")
        if cached is None:
            rows, mu = self.rows, self.mu_leaves
            row = max((abs(sum(r)) for r in rows), default=0)
            adj = 0
            for i in range(len(rows)):
                for j in range(i + 1, len(rows)):
                    d = abs(mu[i] * rows[i][j] - mu[j] * rows[j][i])
                    if d > adj:
                        adj = d
            cached = self.__dict__["_defects"] = (row, adj)
        return cached


def _leaf_blocks(tree, mu):
    """Leaf index map plus, per node, its leaf index range (leaves are
    stored sorted, so each subtree is a contiguous slice)."""
    leaves = tree.leaves()
    span = {w: (i, i + 1) for i, w in enumerate(leaves)}
    for n in range(tree.depth - 1, -1, -1):
        for v in tree.levels[n]:
            cs = tree.children[v]
            span[v] = (span[cs[0]][0], span[cs[-1]][1])
    for v in span:
        if v not in mu:
            raise InvalidMeasureError("measure missing mass for %r" % v)
    return leaves, span


def assemble_laplacian(tree, mu, rho, delta):
    """Matrix of the averaged operator via its action on leaf indicators.

    For a leaf gamma with ancestors gamma_n, the image of its indicator is
    sum over levels n of  w_n / mu(gamma_n) * ( a(gamma_{n-1}) chi_gamma
    - mu(gamma) * sum over siblings u of gamma_n of chi_u / mu(u) ).
    """
    N = tree.depth
    w = _level_weights(rho, delta, N)
    leaves, span = _leaf_blocks(tree, mu)
    size = len(leaves)
    rows = [[0] * size for _ in range(size)]
    for j, gamma in enumerate(leaves):
        mu_gamma = mu[gamma]
        for n in range(1, N + 1):
            parent = gamma[:n - 1]
            node = gamma[:n]
            a_parent = tree.a(parent)
            if a_parent == 0:
                continue
            factor = w[n] / mu[node]
            rows[j][j] += factor * a_parent
            for u in tree.children[parent]:
                if u == node:
                    continue
                off = factor * mu_gamma / mu[u]
                lo, hi = span[u]
                for i in range(lo, hi):
                    rows[i][j] -= off
    return LaplacianMatrix(N, leaves, tuple(map(tuple, rows)),
                           tuple(mu[x] for x in leaves))


def _pair_coefficients(tree, mu, mode, pairs):
    """Per-level sibling pairs with averaging coefficients.

    mode "all" takes every pair with coefficient 1 (the averaged
    operator); "single" one pair per branching node (given, or the
    lexicographically least); "nu-average" all pairs weighted by
    mu(u1) mu(u2) / sum of mu mu over the node's pairs.
    """
    out = []  # (level, u, v, coeff)
    for n in range(1, tree.depth + 1):
        for v in tree.levels[n - 1]:
            cs = tree.children[v]
            if len(cs) < 2:
                continue
            all_pairs = [(cs[i], cs[j]) for i in range(len(cs))
                         for j in range(i + 1, len(cs))]
            if mode == "all":
                chosen = [(u1, u2, 1) for u1, u2 in all_pairs]
            elif mode == "single":
                if pairs is not None and v in pairs:
                    u1, u2 = pairs[v]
                    if u1 not in cs or u2 not in cs or u1 == u2:
                        raise InvalidSelectionError(
                            "selected pair at %r is not a sibling pair" % v)
                else:
                    u1, u2 = cs[0], cs[1]
                chosen = [(u1, u2, 1)]
            else:  # "nu-average"
                norm = sum(mu[u1] * mu[u2] for u1, u2 in all_pairs)
                chosen = [(u1, u2, mu[u1] * mu[u2] / norm)
                          for u1, u2 in all_pairs]
            for u1, u2, c in chosen:
                out.append((n, u1, u2, c))
    return out


def _assemble_bilinear(tree, mu, rho, delta, pair_list):
    """Form matrix A with Q(f, g) = f^T A g, returned as M = D^{-1} A.

    Per pair (u, v) the form contributes the diagonal subtree-expectation
    parts on the two blocks and the independence cross terms between them.
    """
    N = tree.depth
    w = _level_weights(rho, delta, N)
    leaves, span = _leaf_blocks(tree, mu)
    size = len(leaves)
    A = [[0] * size for _ in range(size)]
    mu_leaf = [mu[x] for x in leaves]
    for n, u1, u2, coeff in pair_list:
        c = coeff * w[n]
        for u, other in ((u1, u2), (u2, u1)):
            lo, hi = span[u]
            olo, ohi = span[other]
            cu = c / mu[u]
            for i in range(lo, hi):
                A[i][i] += cu * mu_leaf[i]
            cc = cu / mu[other]
            for i in range(lo, hi):
                row = A[i]
                fi = cc * mu_leaf[i]
                for k in range(olo, ohi):
                    row[k] -= fi * mu_leaf[k]
    rows = tuple(tuple(x / mu_leaf[i] for x in A[i]) for i in range(size))
    return LaplacianMatrix(N, leaves, rows, tuple(mu_leaf))


def assemble_laplacian_dirichlet(tree, mu, rho, delta):
    """Independent assembly route through the Dirichlet form."""
    pair_list = _pair_coefficients(tree, mu, "all", None)
    return _assemble_bilinear(tree, mu, rho, delta, pair_list)


def assemble_pb_laplacian(tree, mu, rho, delta, pair_selection="single",
                          pairs=None):
    """Restricted-edge variant: one sibling pair per branching node
    ("single", optionally given explicitly) or the measure-weighted
    average over all pairs ("nu-average").  Coincides with the full
    operator when every branching node has exactly two children.
    """
    if pair_selection not in ("single", "nu-average"):
        raise ValueError("unknown pair selection %r" % pair_selection)
    pair_list = _pair_coefficients(tree, mu, pair_selection, pairs)
    return _assemble_bilinear(tree, mu, rho, delta, pair_list)


def dirichlet_form_value(tree, mu, rho, delta, f, g):
    """Q(f, g) for cylinder coefficient vectors f and g.

    Per level and sibling pair (u, v) the contribution is
    E(f_u g_u) + E(f_v g_v) - E(f_u) E(g_v) - E(f_v) E(g_u), subtree
    expectations taken against the normalized cylinder measure; disjoint
    subtrees are independent, which turns the paired expectation into the
    product of the two one-sided ones.
    """
    N = tree.depth
    leaves, span = _leaf_blocks(tree, mu)
    if len(f) != len(leaves) or len(g) != len(leaves):
        raise ValueError("coefficient vectors must match the leaf count")
    w = _level_weights(rho, delta, N)
    mu_leaf = [mu[x] for x in leaves]
    fw = [f[i] * mu_leaf[i] for i in range(len(leaves))]
    gw = [g[i] * mu_leaf[i] for i in range(len(leaves))]
    fgw = [f[i] * g[i] * mu_leaf[i] for i in range(len(leaves))]

    def block(vec, u):
        lo, hi = span[u]
        return sum(vec[lo:hi]) / mu[u]

    total = 0
    for n in range(1, N + 1):
        level_sum = 0
        for u1, u2 in horizontal_edges(tree, n):
            level_sum += (block(fgw, u1) + block(fgw, u2)
                          - block(fw, u1) * block(gw, u2)
                          - block(fw, u2) * block(gw, u1))
        total += w[n] * level_sum
    return total


# ---------------------------------------------------------------------------
# invariants and spectra


def check_invariants(lap, tol=1e-12):
    """Verify conservation and self-adjointness with respect to mu.

    Runs on the matrix in its assembly arithmetic, so rationally assembled
    operators are checked exactly; the defects are computed once per matrix
    and each call applies its own tolerance.
    """
    row, adj = lap.defects
    return {"max_row_sum": float(row),
            "max_self_adjoint_defect": float(adj),
            "row_ok": bool(row <= tol),
            "adjoint_ok": bool(adj <= tol)}


def matrix_difference(lap_a, lap_b):
    """Largest entrywise difference, in assembly arithmetic."""
    if lap_a.leaves != lap_b.leaves:
        raise ValueError("matrices index different leaf sets")
    return float(max((abs(x - y)
                      for ra, rb in zip(lap_a.rows, lap_b.rows)
                      for x, y in zip(ra, rb)), default=0))


def spectrum(lap):
    """Ascending eigenvalues of the measure-symmetrized matrix."""
    checks = check_invariants(lap, tol=1e-8)
    if not (checks["row_ok"] and checks["adjoint_ok"]):
        raise InvariantViolationError(
            "matrix fails pre-checks: %r" % (checks,))
    d = np.sqrt(lap.mu_float)
    sym = (d[:, None] * lap.matrix) / d[None, :]
    sym = 0.5 * (sym + sym.T)
    return np.linalg.eigvalsh(sym)
