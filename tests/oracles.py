"""Small-depth oracles that only the tests read.

Each one computes by brute force what the library computes by a closed form
or a shared structure: the child links of every node from scans of the
word levels, the tree check as a walk over every node, choice functions by
exhaustive enumeration, the spectral distance range over all of them, the
sibling pairs of a level, shortest paths in a metric graph by a heapq
Dijkstra from each source, the language statistics from scans of the word
levels (the level counts, the right special words, the repulsiveness
estimators by a memo of every word's border and by a quadratic pair scan,
and repetitivity), a cylinder measure by a scan of every word level, a
Laplacian spectrum by a dense eigensolve of the whole matrix and the pair
checks of a float matrix on numpy arrays, each delta family's
log(delta_n) one index at a time with the checks of every log as it is
made, and the zeta partial sums term by term, added in level order
(plain_partials) and by math.fsum of the exact terms (fsum_partials).
None reads the neighbour LCPs, the forks or the skeleton the library
reads from the sorted leaves.  They are exponential, quadratic or cubic,
or hold every word of every level or every term of a series, so keep
their inputs small.  The library keys a
measure's masses by leaf range and the oracles key theirs by word;
leaf_range and masses_by_word read one through the other, by bisection
of the sorted leaves.
"""

import math
import random
from bisect import bisect_left, bisect_right
from decimal import Context
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heappop, heappush
from itertools import combinations, compress, groupby, islice, product
from operator import add, eq, itemgetter

from ultratree.metrics import common_prefix_length
from ultratree.tree import StructuralError, build_tree
from ultratree.words import REPULSIVENESS_INF, ScaledPowers, language_table


def left_sum(values):
    """values added left to right from 0, as the built-in sum() adds them
    before Python 3.12 and as the library adds a float row on every
    Python."""
    return reduce(add, values, 0)


def delta_log_at(name):
    """log(delta_n) of the delta family of that name (as delta_from_name
    reads it), one Python call per index: the oracle for the logs of a
    range that DeltaSequence's families give at once."""
    if name in ("exp", "exponential"):
        return lambda n: -float(n)
    if name == "harmonic":
        return lambda n: -math.log(n + 1)
    if name.startswith("geom:"):
        lq = math.log(float(name.split(":", 1)[1]))
        return lambda n: n * lq
    a, b = (float(x) for x in name.split(":", 1)[1].split(","))
    shift = max(0, math.ceil(math.exp(b / a)) - 2)
    return lambda n: (b * math.log(math.log(n + 2 + shift))
                      - a * math.log(n + 1 + shift))


def table_log_at(values):
    """log(delta_n) of a table of delta values, one call per index."""
    def log_at(n):
        if n >= len(values):
            raise IndexError("delta table exhausted at index %d" % n)
        return math.log(values[n])
    return log_at


def loop_log(log_at, logs, n):
    """log(delta_n), realizing the missing logs in logs one index at a
    time and checking each as it is made: the oracle for the bulk pass of
    DeltaSequence.log."""
    c = logs
    while len(c) <= n:
        lv = log_at(len(c))
        if not math.isfinite(lv):
            raise ValueError("delta is not finite at %d" % len(c))
        if c and not lv < c[-1]:
            raise ValueError(
                "delta is not strictly decreasing at %d" % len(c))
        c.append(lv)
    return c[n]


def zeta_series(profile):
    """The coefficients of the three zeta series, as the profile holds
    them: a ScaledPowers count doubled by its scale, a tuple term by term."""
    def doubled(counts):
        if isinstance(counts, ScaledPowers):
            return ScaledPowers(2 * counts.scale, counts.k, counts.stop,
                                counts.start)
        return tuple(2 * x for x in counts)
    return {"full": profile.edge_weight, "low": doubled(profile.g),
            "pb": doubled(profile.branching)}


def plain_partials(profile, delta, s_grid, schedule):
    """Every term of every series at every s, added in level order: the
    oracle for the cut-offs of the rows that zeta_partials sums level by
    level.  A ScaledPowers c k^n takes its logs as ln c + n ln k, as the
    library does; a tuple takes math.log of each count."""
    depth = schedule[-1]
    log_delta = delta.logs(depth)
    out = {}
    for variant, coeff in zeta_series(profile).items():
        coeff = coeff[:depth]
        if isinstance(coeff, ScaledPowers):
            c = coeff.scale * coeff.k ** coeff.start
            lc, lk = (math.log(c), math.log(coeff.k)) if c > 0 else (0, 0)
            log_coeff = [lc + n * lk if c > 0 else None
                         for n in range(depth)]
        else:
            log_coeff = [math.log(c) if c > 0 else None for c in coeff]
        rows = []
        for s in s_grid:
            partials = []
            total = 0.0
            pos = 0
            for stop in schedule:
                while pos < stop:
                    lc = log_coeff[pos]
                    if lc is not None:
                        lt = lc + s * log_delta[pos]
                        total += math.inf if lt > 709.0 else math.exp(lt)
                    pos += 1
                partials.append(total)
            rows.append(tuple(partials))
        out[variant] = tuple(rows)
    return out


def _exact_split(x):
    """A Fraction x as a float and the float of its remainder."""
    hi = float(x)
    return hi, float(x - Fraction(hi))


def fsum_partials(profile, delta_name, s_grid, schedule):
    """math.fsum of the exact terms of each series c k^n (a ScaledPowers,
    or a tuple of one positive integer, k = 1) under exp, geom:q, harmonic
    or powerlog:a,0, at each finite s: the oracle for the closed-form rows
    of zeta_partials.  A term is c (k e^(s lq))^n, lq = -1 or the float
    log q, or c (n + 1)^-(a s), each a few units in the last place from
    its true value: ln k is taken to 50 digits, the exponent n ln r or
    a s as a float and its remainder, on numpy arrays.  Any other series
    or s gives None, and a sum past the float range inf."""
    import numpy as np

    depth = schedule[-1]
    if depth >= 2 ** 27:
        raise ValueError("the exponents n ln r are exact for n < 2^27 only")
    if delta_name in ("exp", "exponential") or delta_name.startswith("geom:"):
        lq = -1.0 if not delta_name.startswith("geom:") else math.log(
            float(delta_name.split(":", 1)[1]))
        power = None
    elif delta_name == "harmonic":
        power = 1.0
    elif delta_name.startswith("powerlog:") and float(
            delta_name.split(",")[1]) == 0:
        power = float(delta_name.split(":", 1)[1].split(",")[0])
    else:
        return {v: None for v in ("full", "low", "pb")}
    n = np.arange(depth, dtype=float)
    out = {}
    for variant, coeff in zeta_series(profile).items():
        coeff = coeff[:depth]
        if isinstance(coeff, ScaledPowers):
            c, k = coeff.scale * coeff.k ** coeff.start, coeff.k
        elif coeff and coeff.count(coeff[0]) == len(coeff):
            c, k = coeff[0], 1
        else:
            c = 0
        if not c > 0 or (power is not None and k != 1):
            out[variant] = None
            continue
        ln_k = Fraction(Context(prec=50).ln(k))
        rows = []
        for s in s_grid:
            if not math.isfinite(s):
                rows.append(None)
                continue
            with np.errstate(over="ignore", under="ignore"):
                if power is None:
                    hi, lo = _exact_split(ln_k + Fraction(s) * Fraction(lq))
                    # n times the top 26 bits of hi is exact for n < 2^27
                    t = 134217729.0 * hi
                    top = t - (t - hi)
                    terms = np.exp(n * top) * np.exp(n * (hi - top) + n * lo)
                else:
                    hi, lo = _exact_split(Fraction(power) * Fraction(s))
                    m = n + 1.0
                    terms = np.power(m, -hi) * (1.0 - lo * np.log(m))
                terms = float(c) * terms
            row = []
            for N in schedule:
                try:
                    row.append(math.fsum(terms[:N].tolist()))
                except OverflowError:
                    row.append(math.inf)
            rows.append(tuple(row))
        out[variant] = tuple(rows)
    return out


def tree_for(spec, N):
    """The checked tree of words of a spec at depth N."""
    return build_tree(language_table(spec, N))


@lru_cache(maxsize=1)
def children_of(table):
    """Each word below the depth with the sorted tuple of its one-letter
    extensions, a run of the next level, empty for a word with none.  The
    last table's are kept, for the oracles that ask once per word pair."""
    levels, out = table.levels, {}
    for n in range(table.depth):
        runs = {p: tuple(cs)
                for p, cs in groupby(levels[n + 1], lambda w: w[:-1])}
        out.update((v, runs.get(v, ())) for v in levels[n])
    return out


def walk_tree_check(table):
    """The tree check as a walk over every node below the depth, level by
    level in sorted order: the first word with no child is refused."""
    children = children_of(table)
    for n in range(table.depth):
        for v in table.levels[n]:
            if not children[v]:
                raise StructuralError(
                    "word %r at length %d has no extension" % (v, len(v)))
    return table


def enumerate_choice_functions(tree):
    """Yield every choice function of a small tree: every selection at its
    branching words, the only ones with a choice.  Exponential."""
    children = children_of(tree)
    nodes = [v for n in range(tree.depth) for v in tree.levels[n]
             if len(children[v]) > 1]
    for combo in product(*(children[v] for v in nodes)):
        yield dict(zip(nodes, combo))


def _tail_sums(tree, delta, word, m):
    """All achievable deviation-sum values along the prefix chain of a word,
    over every assignment of choices at its prefixes of lengths m+1..N-1."""
    N = len(word)
    sums = {0.0}
    for n in range(m + 1, N):
        v = word[:n]
        opts = set()
        for child in children_of(tree)[v]:
            opts.add(0.0 if child == word[:n + 1] else delta[n])
        sums = {s + o for s in sums for o in opts}
    return sums


def spectral_distance_range_bruteforce(tree, delta, xi, eta):
    """Exact min and max of the spectral distance over all choice functions.

    The distance depends only on the selections at the prefixes of the two
    points, and below the fork those selections are independent, so the
    enumeration runs over the fork node's choices times all combinations
    along the two tails.  Every combination is realized by some global
    choice function.
    """
    if xi == eta:
        return 0.0, 0.0
    m = common_prefix_length(xi, eta)
    base = delta[m]
    sums_x = _tail_sums(tree, delta, xi, m)
    sums_y = _tail_sums(tree, delta, eta, m)
    lo = base + min(sums_x) + min(sums_y)
    hi = base + max(sums_x) + max(sums_y)
    return lo, hi


def horizontal_edges(tree, n):
    """Unordered sibling pairs at level n (their common parent sits at
    level n-1, so each pair carries length delta_{n-1})."""
    if not 1 <= n <= tree.depth:
        raise ValueError("level out of range")
    children = children_of(tree)
    return [pair for v in tree.levels[n - 1]
            for pair in combinations(children[v], 2)]


def dijkstra_distances(graph, pairs):
    """Shortest-path lengths for vertex pairs of a MetricGraph, by a heapq
    Dijkstra from each distinct first vertex over the edges as given;
    math.inf for a pair with no path."""
    adj = [[] for _ in graph.vertices]
    for (i, j), d in graph.edges.items():
        adj[i].append((j, d))
        adj[j].append((i, d))
    runs, out = {}, []
    for u, v in pairs:
        s = graph.index[u]
        if s not in runs:
            dist, done, heap = {s: 0.0}, set(), [(0.0, s)]
            while heap:
                dx, x = heappop(heap)
                if x in done:
                    continue
                done.add(x)
                for y, d in adj[x]:
                    if dx + d < dist.get(y, math.inf):
                        dist[y] = dx + d
                        heappush(heap, (dx + d, y))
            runs[s] = dist
        out.append(runs[s].get(graph.index[v], math.inf))
    return out


def counts_by_levels(table):
    """P(n) for n = 0..depth, the size of each word level."""
    return tuple(len(level) for level in table.levels)


def right_special_by_levels(table, n):
    """The length-n words with at least two one-letter right extensions:
    the words that level n + 1, cut by its last letter, gives twice in a
    row."""
    cut = list(map(itemgetter(slice(None, -1)), table.levels[n + 1]))
    return set(compress(cut, map(eq, cut, islice(cut, 1, None))))


def repulsiveness_by_border_memo(table, N=None):
    """(l_hat, l_hat_R, witnesses) from the levels in order, shortest
    first and lexicographic within a level, each word's longest border one
    Knuth-Morris-Pratt step from its parent's, following the border links
    of its prefixes, memoized per word in a dict of every word."""
    if N is None:
        N = table.depth
    border = dict.fromkeys(table.levels[1], 0)
    best = best_rs = REPULSIVENESS_INF
    best_pair = best_rs_pair = None
    for n in range(2, N + 1):
        special = (right_special_by_levels(table, n) if n < table.depth
                   else ())
        for W in table.levels[n]:
            last = W[-1]
            k = border[W[:-1]]
            while k and W[k] != last:
                k = border[W[:k]]
            if W[k] == last:
                k += 1
            border[W] = k
            if k >= 1:
                ratio = (n - k) / k
                if ratio < best:
                    best, best_pair = ratio, (W[:k], W)
                if ratio < best_rs and W in special:
                    best_rs, best_rs_pair = ratio, (W[:k], W)
    return best, best_rs, {"l_hat": best_pair, "l_hat_R": best_rs_pair}


def repetitivity_by_levels(table, n):
    """The least n' such that every word of level n' contains every word of
    level n, over the nonempty levels up to the depth; None for none."""
    targets = table.levels[n]
    if not targets:
        return None
    for np in range(n, table.depth + 1):
        hosts = table.levels[np]
        if hosts and all(all(t in h for t in targets) for h in hosts):
            return np
    return None


def repulsiveness_bruteforce(table, N=None, right_special_only=False):
    """Quadratic pair scan over the whole table."""
    if N is None:
        N = table.depth
    rs = None
    if right_special_only:
        rs = [right_special_by_levels(table, n) for n in range(table.depth)]
    best = REPULSIVENESS_INF
    best_pair = None
    for n in range(2, N + 1):
        for W in table.levels[n]:
            if right_special_only and (n > table.depth - 1 or W not in rs[n]):
                continue
            for k in range(1, n):
                w = W[:k]
                if W[n - k:] != w:
                    continue
                if right_special_only and w not in rs[k]:
                    continue
                ratio = (n - k) / k
                if ratio < best:
                    best, best_pair = ratio, (w, W)
    return best, best_pair


def dense_spectrum(lap):
    """Ascending eigenvalues of the whole measure-symmetrized matrix from
    numpy's dense symmetric eigensolver, cubic in the leaf count."""
    import numpy as np
    d = np.sqrt(np.array(lap.mu_leaves, dtype=float))
    sym = (d[:, None] * np.array(lap.floats)) / d[None, :]
    sym = 0.5 * (sym + sym.T)
    return np.linalg.eigvalsh(sym)


def float_invariants_by_numpy(lap, tol=1e-12):
    """check_invariants of a float matrix, with its pair defects and its
    relative pair test on the array of mu_i M_ij, whose elementwise
    products and differences round as Python's do; fmax passes over NaN
    defects, as a maximum folded from 0.0 does.  The row sums are the
    left_sum's.  Returns the defects and the checks."""
    import numpy as np
    scaled = (np.array(lap.mu_leaves, dtype=float)[:, None]
              * np.array(lap.floats))
    x, y = scaled, scaled.T
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in Python
        adj = float(np.fmax.reduce(np.abs(x - y), axis=None, initial=0.0))
        pairs_ok = np.abs(x - y) <= tol * np.fmax(1.0,
                                                  np.abs(x) + np.abs(y))
    np.fill_diagonal(pairs_ok, True)
    rows = lap.rows
    row = max((abs(left_sum(r)) for r in rows), default=0)
    return (row, adj), {
        "max_row_sum": float(row),
        "max_self_adjoint_defect": adj,
        "row_ok": bool(row <= tol or all(
            abs(left_sum(r)) <= tol * max(1, left_sum(map(abs, r)))
            for r in rows)),
        "adjoint_ok": bool(adj <= tol or pairs_ok.all())}


def measure_by_levels(tree, weights=None, seed=None):
    """cylinder_measure by a scan of every word level: every word below the
    depth, branching or not, takes a weight list (one random draw per child
    or a dict entry, which must then be given), and every word a mass."""
    rng = random.Random(seed) if weights == "random" else None
    children = children_of(tree)
    mu = {"": Fraction(1)}
    for n in range(tree.depth):
        for v in tree.levels[n]:
            cs = children[v]
            if rng is not None:
                raw = [rng.randint(1, 100) for _ in cs]
                probs = [Fraction(r, sum(raw)) for r in raw]
            elif weights is None:
                probs = [Fraction(1, len(cs))] * len(cs)
            else:
                probs = weights[v]
            for c, p in zip(cs, probs):
                mu[c] = mu[v] * p
    return mu


def leaf_range(tree, word):
    """The range (lo, hi) of the sorted leaves that start with word, the
    key of its mass in a measure of the library."""
    leaves, prefix = tree.sorted_leaves, itemgetter(slice(len(word)))
    lo = bisect_left(leaves, word, key=prefix)
    return lo, bisect_right(leaves, word, lo, key=prefix)


def masses_by_word(tree, mu, words):
    """The masses of a measure of the library at these words, keyed by
    word; each is read at the word's leaf range."""
    return {x: mu[leaf_range(tree, x)] for x in words}
