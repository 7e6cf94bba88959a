"""Ultrametric and spectral distances with their order diagnostics.

Points at finite resolution are depth-N words (root-to-leaf paths in the
tree of words).  The ultrametric is d(x, y) = delta_m with m the length of
the longest common prefix; the spectral distance of a choice function adds
delta-weighted deviation terms along both tails.  The Lipschitz estimate
C(N) and the continuity witness W(N) summarize how far the supremum
distance can drift from the ultrametric.
"""

import math
from dataclasses import dataclass, field
from itertools import product

from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

# delta_from_name is defined with the edge lengths in .tree and re-exported
# here for callers that read it on this module (bench/workloads.py and the
# tracer in bench/tracing.py)
from .tree import _finish, build_tree, delta_from_name  # noqa: F401
from .words import LanguageTable, _branching_chain, language_table


class DepthMismatchError(ValueError):
    pass


class UnreachableVertexError(RuntimeError):
    """A vertex pair is disconnected; the graph invariant is broken."""


# ---------------------------------------------------------------------------
# distances


def common_prefix_length(x, y):
    m = 0
    for cx, cy in zip(x, y):
        if cx != cy:
            break
        m += 1
    return m


def ultrametric_distance(xi, eta, delta):
    """d(xi, eta) = delta at the longest-common-prefix length."""
    if len(xi) != len(eta):
        raise DepthMismatchError("points live at different depths")
    if xi == eta:
        return 0.0
    return delta[common_prefix_length(xi, eta)]


def spectral_distance(tree, tau, delta, xi, eta):
    """Closed-form spectral distance of the choice function tau."""
    if len(xi) != len(eta):
        raise DepthMismatchError("points live at different depths")
    if xi == eta:
        return 0.0
    N = len(xi)
    m = common_prefix_length(xi, eta)
    # the two tails are summed separately (ascending), so the result is
    # bitwise identical to the factored enumeration over tail choices
    tail_x = tail_y = 0.0
    sel = tau.selection
    for n in range(m + 1, N):
        if sel[xi[:n]] != xi[:n + 1]:
            tail_x += delta[n]
        if sel[eta[:n]] != eta[:n + 1]:
            tail_y += delta[n]
    return delta[m] + tail_x + tail_y


def sup_spectral_distance(tree, delta, xi, eta):
    """Supremum over choice functions, evaluated by the branching profile."""
    if len(xi) != len(eta):
        raise DepthMismatchError("points live at different depths")
    if xi == eta:
        return 0.0
    N = len(xi)
    m = common_prefix_length(xi, eta)
    tail_x = tail_y = 0.0
    for n in range(m + 1, N):
        if tree.a(xi[:n]) > 0:
            tail_x += delta[n]
        if tree.a(eta[:n]) > 0:
            tail_y += delta[n]
    return delta[m] + tail_x + tail_y


def inf_spectral_distance(tree, delta, xi, eta):
    """Infimum over choice functions; equals the ultrametric."""
    return ultrametric_distance(xi, eta, delta)


# ---------------------------------------------------------------------------
# graph oracle


def _graph_csr(graph):
    cached = getattr(graph, "_csr", None)
    if cached is not None:
        return cached
    n = len(graph.vertices)
    rows, cols, vals = [], [], []
    for (i, j), d in graph.edges.items():
        rows += [i, j]
        cols += [j, i]
        vals += [d, d]
    mat = csr_matrix((vals, (rows, cols)), shape=(n, n))
    object.__setattr__(graph, "_csr", mat)
    return mat


def graph_distance_oracle(graph, u, v):
    """Shortest-path length between two vertices (Dijkstra)."""
    iu, iv = graph.index[u], graph.index[v]
    dist = dijkstra(_graph_csr(graph), directed=False, indices=iu)
    d = dist[iv]
    if math.isinf(d):
        raise UnreachableVertexError(
            "vertices %r and %r are disconnected" % (u, v))
    return float(d)


def graph_distances(graph, pairs):
    """Shortest-path lengths for many vertex pairs at once."""
    sources = sorted({graph.index[u] for u, _ in pairs})
    src_pos = {s: i for i, s in enumerate(sources)}
    dist = dijkstra(_graph_csr(graph), directed=False, indices=sources)
    out = []
    for u, v in pairs:
        d = dist[src_pos[graph.index[u]], graph.index[v]]
        if math.isinf(d):
            raise UnreachableVertexError(
                "vertices %r and %r are disconnected" % (u, v))
        out.append(float(d))
    return out


# ---------------------------------------------------------------------------
# exhaustive choice-function oracles (small depth)


def _tail_sums(tree, delta, word, m):
    """All achievable deviation-sum values along the prefix chain of a word,
    over every assignment of choices at its prefixes of lengths m+1..N-1."""
    N = len(word)
    sums = {0.0}
    for n in range(m + 1, N):
        v = word[:n]
        opts = set()
        for child in tree.children[v]:
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


def enumerate_choice_functions(tree):
    """Yield every choice function of a small tree.  Exponential; tests only."""
    nodes = [v for n in range(tree.depth) for v in tree.levels[n]]
    child_lists = [tree.children[v] for v in nodes]
    for combo in product(*child_lists):
        yield _finish(tree, dict(zip(nodes, combo)))


# ---------------------------------------------------------------------------
# Lipschitz and continuity diagnostics (generic tree engine)


@dataclass(frozen=True)
class OrderDiagnostic:
    value: float
    witness_node: str
    witness_path: str
    per_level: tuple = field(default=(), compare=False)


def _tree_engine(tree, delta, N):
    """(C(N), W(N)) from one bottom-up pass over the tree of words cut at
    depth N <= its depth.  A parent reads up[c] = T(c) + delta_n for a child
    c branching at level n, else T(c), and arg[v] is the lexicographically
    least child attaining T(v)."""
    children = tree.children
    up = dict.fromkeys(tree.levels[N], 0.0)
    arg = {}
    series = []
    for n in range(N - 1, -1, -1):
        level_best, level_v = -1.0, None
        for v in tree.levels[n]:
            cs = children[v]
            best, best_c = -1.0, None
            for c in cs:
                val = up[c]
                if val > best:
                    best, best_c = val, c
            arg[v] = best_c
            if len(cs) > 1:
                d = delta[n]
                up[v] = best + d
                if best / d > level_best:
                    level_best, level_v = best / d, v
            else:
                up[v] = best
        if level_v is not None:
            series.append((n, level_best, level_v))

    def descend(v):
        while v in arg:
            v = arg[v]
        return v

    w = OrderDiagnostic(best, "", descend(""), ())
    series.reverse()
    best, best_v = 0.0, None
    for _, value, v in series:
        if value > best:
            best, best_v = value, v
    if best_v is None:
        return OrderDiagnostic(0.0, "", "", ()), w
    return OrderDiagnostic(best, best_v, descend(best_v),
                           tuple((m, value) for m, value, _ in series)), w


def lipschitz_estimate(tree, delta):
    """C(N): the largest ratio T(v)/delta_m over branching nodes v at level
    m, where T(v) is the maximal deviation-weighted delta sum along
    descendant paths of v."""
    return _tree_engine(tree, delta, tree.depth)[0]


def continuity_witness(tree, delta):
    """W(N): the maximal branching-weighted delta sum over root-to-leaf
    paths, levels 1 through N-1."""
    return _tree_engine(tree, delta, tree.depth)[1]


# ---------------------------------------------------------------------------
# branching chains from words._branching_chain: full shifts and Sturmian specs


def _chain_engine(chain, delta, N):
    """(C(N), W(N)) from a chain at least N deep.  B[m] is the largest sum
    of delta_n/delta_m over chains lying strictly above level m and passing
    through it."""
    word, fail = chain
    word = word[:N]
    logs = delta.logs(len(word))
    B = [0.0] * N
    for m in range(len(word) - 1, 0, -1):
        f = fail[m]
        cand = math.exp(logs[m] - logs[f]) * (1.0 + B[m])
        if cand > B[f]:
            B[f] = cand
    w = OrderDiagnostic(delta[0] * B[0], "", word[::-1])
    m = B.index(max(B))
    return OrderDiagnostic(B[m], word[:m][::-1], ""), w


def _fast_engine(spec, delta, N):
    chain = _branching_chain(spec, N)
    if chain is None:
        raise TypeError("no fast engine for %r" % (spec,))
    return _chain_engine(chain, delta, N)


def lipschitz_estimate_fast(spec, delta, N):
    """Evaluation of C(N) for full shifts and Sturmian specs through
    closed-form branching structure; agrees with the tree engine but
    scales to depths in the thousands."""
    return _fast_engine(spec, delta, N)[0]


def continuity_witness_fast(spec, delta, N):
    """Fast evaluation of W(N) for full shifts and Sturmian specs."""
    return _fast_engine(spec, delta, N)[1]


def order_diagnostics(source, delta, schedule):
    """[(C(N), W(N)) for N in an increasing schedule] from one structure:
    source is a tree of words as deep as the schedule, or a spec, whose
    branching chain or else tree of words is built once at the last depth.
    Each depth then costs one pass for both values."""
    engine, structure = _tree_engine, source
    if not isinstance(source, LanguageTable):
        structure = _branching_chain(source, schedule[-1])
        if structure is None:
            structure = build_tree(language_table(source, schedule[-1]))
        else:
            engine = _chain_engine
    elif schedule[-1] > source.depth:
        raise ValueError("schedule goes below the tree depth")
    return [engine(structure, delta, N) for N in schedule]


# ---------------------------------------------------------------------------
# trend verdicts


# growth of the last doubling step below TREND_FLAT reads as bounded, above
# TREND_GROW as unbounded
TREND_FLAT = 0.01
TREND_GROW = 0.25


def trend_verdict(values):
    """Classify the last doubling step of a series as bounded ("yes"),
    unbounded ("no") or "undecided"."""
    if len(values) < 2 or values[-2] == 0:
        return "undecided"
    growth = (values[-1] - values[-2]) / values[-2]
    if growth < TREND_FLAT:
        return "yes"
    if growth > TREND_GROW:
        return "no"
    return "undecided"
