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
closed forms are checked against shortest paths on the approximation
graph, kept here and computed by vertex elimination in plain Python, and
against exhaustive enumeration of choice functions, a test oracle in
tests/oracles.py.  Neither this module nor its shortest paths load numpy,
and heapq loads on their first call.
"""

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
# graph oracle: shortest paths by vertex elimination


def _eliminate(graph):
    """Up edges of every vertex by elimination, in rank order.

    Vertices are removed by least current degree, read from a lazy heap.
    Removing one joins each pair of its remaining neighbours by the two-hop
    length wherever that is shorter than their edge, so the graph left keeps
    the distances between the vertices left; its edges at removal are its
    up edges, each to a vertex of higher rank.  Every such shortcut is kept
    (a contraction hierarchy with no witness search), so the result is
    exact on any graph: every pair has a shortest path that climbs from
    either end along up edges to its highest-ranked vertex.  Returns, per
    rank, the up edges as (rank, length), and the rank of each vertex."""
    from heapq import heapify, heappop, heappush
    adj = [{} for _ in graph.vertices]
    for (i, j), d in graph.edges.items():
        adj[i][j] = adj[j][i] = d
    heap = [(len(a), v) for v, a in enumerate(adj)]
    heapify(heap)
    rank, order = [None] * len(adj), []
    while heap:
        degree, v = heappop(heap)
        if rank[v] is not None or degree != len(adj[v]):
            continue  # removed, or its degree changed and it was pushed again
        rank[v] = len(order)
        nbrs = list(adj[v].items())
        order.append(nbrs)
        for a, _ in nbrs:
            del adj[a][v]
        for k, (a, da) in enumerate(nbrs):
            near = adj[a]
            for b, db in nbrs[k + 1:]:
                d = da + db
                old = near.get(b)
                if old is None or d < old:
                    near[b] = adj[b][a] = d
        for a, _ in nbrs:
            heappush(heap, (len(adj[a]), a))
        adj[v] = None
    return [[(rank[a], d) for a, d in nbrs] for nbrs in order], rank


def _climb(up, r):
    """Length of the shortest up-edge path from rank r to each rank it
    reaches: ranks are settled in increasing order, since every up edge
    into a rank comes from a lower one."""
    from heapq import heappop, heappush
    dist, heap = {r: 0.0}, [r]
    while heap:
        x = heappop(heap)
        dx = dist[x]
        for y, d in up[x]:
            old = dist.get(y)
            if old is None:
                dist[y] = dx + d
                heappush(heap, y)
            elif dx + d < old:
                dist[y] = dx + d
    return dist


def graph_distances(graph, pairs):
    """Shortest-path lengths for vertex pairs: the up edges of one
    elimination (_eliminate), then for each pair the least dx[h] + dy[h]
    over the ranks h reached by climbing from both ends."""
    up, rank = _eliminate(graph)
    climbs, out = {}, []
    for u, v in pairs:
        ends = []
        for w in (u, v):
            r = rank[graph.index[w]]
            if r not in climbs:
                climbs[r] = _climb(up, r)
            ends.append(climbs[r])
        dx, dy = sorted(ends, key=len)
        best = min((d + dy[h] for h, d in dx.items() if h in dy),
                   default=None)
        if best is None:
            raise UnreachableVertexError(
                "vertices %r and %r are disconnected" % (u, v))
        out.append(best)
    return out


def graph_distance_oracle(graph, u, v):
    """Shortest-path length between two vertices."""
    return graph_distances(graph, [(u, v)])[0]
