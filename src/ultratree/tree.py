"""Truncated trees of words and their approximation graphs.

Level n of the tree holds the admissible words of length n; a node's parent
is its length-(n-1) prefix.  A LanguageTable is this tree: it carries the
child links, and build_tree checks that every word below the depth has a
child and returns the table.  Horizontal edges join distinct siblings, and
the edge between children of a level-n vertex has length delta_n.  A choice
function selects one child per vertex; quotienting the horizontal edges by
those selections gives the metric approximation graph.
"""

import random
from dataclasses import dataclass, field

# StructuralError is defined with LanguageTable, which refuses orphan words
from .words import StructuralError, language_table


class InfeasibleChoiceError(ValueError):
    """A requested deviation bit cannot be realized at its node."""


def build_tree(table):
    """Check that a language table is a tree of words and return it.

    The table already refuses orphan words; here every word below the depth
    must also have a child, so that every node lies on a root-to-leaf path.
    """
    children = table.children
    for n in range(table.depth):
        for v in table.levels[n]:
            if not children[v]:
                raise StructuralError(
                    "word %r at length %d has no extension" % (v, len(v)))
    return table


def tree_for(spec, N):
    return build_tree(language_table(spec, N))


def horizontal_edges(tree, n):
    """Unordered sibling pairs at level n (their common parent sits at
    level n-1, so each pair carries length delta_{n-1})."""
    if not 1 <= n <= tree.depth:
        raise ValueError("level out of range")
    out = []
    for v in tree.levels[n - 1]:
        cs = tree.children[v]
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                out.append((cs[i], cs[j]))
    return out


@dataclass(frozen=True)
class ChoiceFunction:
    """One selected child per non-leaf node, with the induced depth-N
    representative of every node."""

    selection: dict = field(compare=False)
    representative: dict = field(compare=False)

    def __call__(self, v):
        return self.selection[v]


def _finish(tree, selection):
    rep = {w: w for w in tree.leaves()}
    for n in range(tree.depth - 1, -1, -1):
        for v in tree.levels[n]:
            rep[v] = rep[selection[v]]
    return ChoiceFunction(selection, rep)


def choice_function(tree, policy="canonical", seed=None, path=None,
                    bits=None):
    """Build a choice function.

    policy "canonical" takes the lexicographically least child everywhere;
    "seeded-random" draws children uniformly from a 64-bit seed;
    "adversarial-path" takes a root-to-leaf word and deviation bits c_n and
    selects, at each path node of level n with c_n = 1, a child off the
    path (canonical elsewhere).
    """
    if policy == "canonical":
        return _finish(tree, {v: cs[0] for v, cs in tree.children.items()})
    if policy == "seeded-random":
        rng = random.Random(seed)
        sel = {}
        for n in range(tree.depth):
            for v in tree.levels[n]:
                sel[v] = rng.choice(tree.children[v])
        return _finish(tree, sel)
    if policy == "adversarial-path":
        if path is None or bits is None:
            raise ValueError("adversarial-path needs path and bits")
        if len(path) != tree.depth:
            raise ValueError("path must be a depth-%d word" % tree.depth)
        sel = {v: cs[0] for v, cs in tree.children.items()}
        for n, c in enumerate(bits):
            v = path[:n]
            nxt = path[:n + 1]
            if c == 0:
                sel[v] = nxt
            elif c == 1:
                others = [u for u in tree.children[v] if u != nxt]
                if not others:
                    raise InfeasibleChoiceError(
                        "node %r has no sibling to deviate to" % v)
                sel[v] = others[0]
            else:
                raise ValueError("bits must be 0 or 1")
        return _finish(tree, sel)
    raise ValueError("unknown policy %r" % policy)


@dataclass(frozen=True)
class MetricGraph:
    """Quotient of the horizontal edges by a choice function.

    Vertices are the depth-N representative words; edges carry the shortest
    length among the horizontal edges that collapsed onto the pair.
    """

    vertices: tuple
    index: dict = field(compare=False)
    edges: dict = field(compare=False)  # (i, j) with i < j -> length

    def edge_list(self):
        return [(self.vertices[i], self.vertices[j], d)
                for (i, j), d in sorted(self.edges.items())]


def approximation_graph(tree, tau, delta):
    """The metric graph Gamma(tau) for edge lengths drawn from delta."""
    vertices = tuple(tree.leaves())
    index = {w: i for i, w in enumerate(vertices)}
    rep = tau.representative
    edges = {}
    for n in range(1, tree.depth + 1):
        length = delta[n - 1]
        for u1, u2 in horizontal_edges(tree, n):
            ri = index[rep[u1]]
            rj = index[rep[u2]]
            key = (ri, rj) if ri < rj else (rj, ri)
            old = edges.get(key)
            if old is None or length < old:
                edges[key] = length
    return MetricGraph(vertices, index, edges)


def graph_is_connected(graph):
    """Traversal check used by the structural tests."""
    n = len(graph.vertices)
    if n == 0:
        return True
    adj = [[] for _ in range(n)]
    for (i, j) in graph.edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == n
