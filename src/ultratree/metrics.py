"""Ultrametric and spectral distances with their oracles.

Points at finite resolution are depth-N words (root-to-leaf paths in the
tree of words).  The ultrametric is d(x, y) = delta_m with m the length of
the longest common prefix; the spectral distance of a choice function adds
delta-weighted deviation terms along both tails, and its supremum over
choice functions adds the branching terms.  The flagged levels of every
word, deviation or branching, are found in one top-down pass, once per
choice function and once per tree.  A query then costs O(log N) for the
fork plus its tails, each summed ascending from 0.0.  The closed forms are
checked against Dijkstra on the approximation graph, kept here, and
against exhaustive enumeration of choice functions, a test oracle in
tests/oracles.py.  Only the Dijkstra oracle uses scipy, and imports it on
its first call, so importing this module loads neither scipy nor numpy.
"""

import math
from bisect import bisect_right

# defined in .tree and re-exported for callers that read them on this module
# (bench/workloads.py and the tracer in bench/tracing.py)
from .tree import (continuity_witness, continuity_witness_fast,  # noqa: F401
                   delta_from_name, lipschitz_estimate,
                   lipschitz_estimate_fast, trend_verdict)
from .words import _common_prefix_length as common_prefix_length


class DepthMismatchError(ValueError):
    pass


class UnreachableVertexError(RuntimeError):
    """A vertex pair is disconnected; the graph invariant is broken."""


# ---------------------------------------------------------------------------
# distances


def ultrametric_distance(xi, eta, delta):
    """d(xi, eta) = delta at the longest-common-prefix length."""
    if len(xi) != len(eta):
        raise DepthMismatchError("points live at different depths")
    if xi == eta:
        return 0.0
    return delta[common_prefix_length(xi, eta)]


def _flagged_levels(tree, cache, selection):
    """The cache, filled on first use: every node of the tree mapped to the
    ascending tuple of the levels n < len(node) at which its path leaves a
    branching node v = node[:n] by a child other than selection.get(v).
    With a choice function's selection these are its deviation levels, with
    an empty one the branching levels.  One top-down pass over the nodes,
    sharing the tuple of each unflagged child with its parent."""
    if not cache:
        cache[""] = ()
        children, kept = tree.children, selection.get
        for n in range(tree.depth):
            for v in tree.levels[n]:
                t, cs = cache[v], children[v]
                if len(cs) == 1:
                    cache[cs[0]] = t
                    continue
                keep, off = kept(v), t + (n,)
                for c in cs:
                    cache[c] = t if c == keep else off
    return cache


def _tail(delta, levels, w, m):
    """delta_n summed ascending from 0.0 over the flagged levels n > m of
    the word w."""
    try:
        t = levels[w]
    except KeyError:
        raise ValueError("word %r is not in the tree" % (w,)) from None
    total = 0.0
    i = bisect_right(t, m)
    if i < len(t):
        vals = delta.values(t[-1] + 1)
        for n in t[i:]:
            total += vals[n]
    return total


def _two_tails(delta, xi, eta, levels):
    """delta at the fork m plus, for either point, its tail over the levels
    above m that levels flags."""
    if len(xi) != len(eta):
        raise DepthMismatchError("points live at different depths")
    if xi == eta:
        return 0.0
    m = common_prefix_length(xi, eta)
    return delta[m] + _tail(delta, levels, xi, m) \
        + _tail(delta, levels, eta, m)


def spectral_distance(tree, tau, delta, xi, eta):
    """Closed-form spectral distance of the choice function tau: its
    deviation levels, sel[w[:n]][n] != w[n], are found once per tau."""
    return _two_tails(delta, xi, eta, _flagged_levels(
        tree, tau.deviation_levels, tau.selection))


def sup_spectral_distance(tree, delta, xi, eta):
    """Supremum over choice functions, evaluated by the branching profile:
    the branching levels, len(children[w[:n]]) > 1, are found once per
    tree."""
    return _two_tails(delta, xi, eta, _flagged_levels(
        tree, tree.branching_levels, {}))


def inf_spectral_distance(tree, delta, xi, eta):
    """Infimum over choice functions; equals the ultrametric."""
    return ultrametric_distance(xi, eta, delta)


# ---------------------------------------------------------------------------
# graph oracle


def _graph_csr(graph):
    from scipy.sparse import csr_matrix
    n = len(graph.vertices)
    rows, cols, vals = [], [], []
    for (i, j), d in graph.edges.items():
        rows += [i, j]
        cols += [j, i]
        vals += [d, d]
    return csr_matrix((vals, (rows, cols)), shape=(n, n))


def graph_distances(graph, pairs):
    """Shortest-path lengths for vertex pairs (Dijkstra, one run per
    distinct source)."""
    from scipy.sparse.csgraph import dijkstra
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


def graph_distance_oracle(graph, u, v):
    """Shortest-path length between two vertices."""
    return graph_distances(graph, [(u, v)])[0]
