"""Ultrametric and spectral distances with their oracles.

Points at finite resolution are depth-N words (root-to-leaf paths in the
tree of words).  The ultrametric is d(x, y) = delta_m with m the length of
the longest common prefix; the spectral distance of a choice function adds
delta-weighted deviation terms along both tails, and its supremum over
choice functions adds the branching terms.  Only the branching words of
a point's path can add a term, and the tree keeps them once, as its
skeleton (words.LanguageTable.skeleton).  A query finds the fork, checks
each point against the sorted leaves and walks from the point's longest
branching proper prefix up the skeleton's parent links to the fork,
summing each tail ascending from 0.0; no per-node levels are kept.  The
closed forms are checked against Dijkstra on the approximation graph,
kept here, and against exhaustive enumeration of choice functions, a test
oracle in tests/oracles.py.  Only the Dijkstra oracle uses scipy, and
imports it on its first call, so importing this module loads neither
scipy nor numpy.
"""

import math
from bisect import bisect_left

# defined in .tree and re-exported for callers that read them on this module
# (bench/workloads.py and the tracer in bench/tracing.py)
from .tree import (continuity_witness, continuity_witness_fast,  # noqa: F401
                   delta_from_name, lipschitz_estimate,
                   lipschitz_estimate_fast, trend_verdict)


def common_prefix_length(u, v):
    """Length of the longest common prefix, by binary search on slices."""
    lo, hi = 0, min(len(u), len(v))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if u[:mid] == v[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


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


def _tail(tree, delta, w, m, selection):
    """delta_n summed ascending from 0.0 over the levels m < n < len(w) at
    which the word w leaves a branching word v = w[:n]: every such level
    for no selection, else those where w[n] is not the last letter of
    selection[v].  The branching words on w's path are read from the tree's
    skeleton: the last skeleton word before w leads by parent links to w's
    longest branching proper prefix, and its parent links to the others."""
    leaves = tree.sorted_leaves
    i = bisect_left(leaves, w)
    if i == len(leaves) or not leaves[i].startswith(w):
        raise ValueError("word %r is not in the tree" % (w,))
    words, parent, level = tree.skeleton
    j = bisect_left(words, w) - 1
    while not w.startswith(words[j]):
        j = parent[j]
    flagged, n = [], level[j]
    while n > m:
        if selection is None or selection[words[j]][n] != w[n]:
            flagged.append(n)
        j = parent[j]
        n = level[j]
    total = 0.0
    if flagged:
        vals = delta.values(flagged[0] + 1)
        for n in reversed(flagged):
            total += vals[n]
    return total


def _two_tails(tree, delta, xi, eta, selection):
    """delta at the fork m plus, for either point, its tail above m."""
    if len(xi) != len(eta):
        raise DepthMismatchError("points live at different depths")
    if xi == eta:
        return 0.0
    m = common_prefix_length(xi, eta)
    return delta[m] + _tail(tree, delta, xi, m, selection) \
        + _tail(tree, delta, eta, m, selection)


def spectral_distance(tree, tau, delta, xi, eta):
    """Closed-form spectral distance of the choice function tau (see
    tree.choice_function): each tail sums delta over the levels n at which
    its point deviates from tau, tau[w[:n]][n] != w[n], read at the
    branching words of its path."""
    return _two_tails(tree, delta, xi, eta, tau)


def sup_spectral_distance(tree, delta, xi, eta):
    """Supremum over choice functions, evaluated by the branching profile:
    each tail sums delta over the levels of the branching words of its
    path, read from the tree's skeleton."""
    return _two_tails(tree, delta, xi, eta, None)


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
