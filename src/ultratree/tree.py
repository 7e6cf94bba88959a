"""Truncated trees of words and their approximation graphs.

Level n of the tree holds the admissible words of length n; a node's parent
is its length-(n-1) prefix.  A LanguageTable is this tree: its sorted
leaves and the skeleton read from them, whose branching words carry their
children's leaf ranges.  A word below the depth with no child is a leaf
shorter than the depth, so one check of the sorted leaves refuses a table,
or a spec's leaves (spec_tree), that is not a tree: the same check in
build_tree, the order diagnostics and the zeta partials.  Horizontal edges
join distinct siblings, and the edge between children of a level-n vertex
has length delta_n, read from a DeltaSequence (delta_from_name parses a
family name).  A choice function is a dict from each branching word to its
selected child, the only words with a choice; quotienting the horizontal
edges by those selections gives the metric approximation graph.

The order diagnostics, the Lipschitz estimate C(N) and the continuity
witness W(N), summarize how far the supremum spectral distance can drift
from the ultrametric.  One engine computes both, in ratios of deltas at
any depth, on a branching skeleton: the failure array of a full shift's
or Sturmian spec's branching chain, or a tree's skeleton, read from its
sorted leaves.  Each structure is computed once and shared: a spec's
chain is built once and read at every depth up to the one it was built
for, C and W of one (tree or spec, delta, N) share one push, and a
table's forks and skeleton are read once and kept on it (see
words.LanguageTable).  The chain and result caches keep a few entries
each.
"""

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import combinations, islice, repeat
from operator import gt, itemgetter, mul, neg, sub

from .words import (LanguageTable, RecentValues, _branching_chain, _leaves,
                    _skeleton, spec_key)


class StructuralError(ValueError):
    """A language table is not a tree of words: a word has no extension."""


# ---------------------------------------------------------------------------
# edge lengths


class DeltaSequence:
    """Strictly decreasing positive null sequence of edge lengths.

    The sequence is defined through the natural log of its values, which
    keeps ratios of far-apart entries computable even where the values
    themselves underflow to float zero (exponential delta does so near
    index 750).  A family gives the logs of a range of indices at once,
    logs_fn(start, stop) for start <= n < stop, through C-level maps
    rather than one Python call per index.  Every realized log must be
    finite and below the one before it.  tail_bound(N), when available in
    closed form, bounds the remainder sum from index N on.
    """

    def __init__(self, logs_fn, name, tail_fn=None):
        self._logs_fn = logs_fn
        self.name = name
        self._tail = tail_fn
        self._logs = []
        self._values = []

    def log(self, n):
        if n < 0:
            raise IndexError("delta index must be >= 0")
        c = self._logs
        if len(c) <= n:
            self._realize(n + 1)
        return c[n]

    def _realize(self, stop):
        """Realize the logs below stop in one pass, then check them.  The
        first that is not finite or not below the one before raises, with
        the logs before it kept; an error of the log function itself is
        raised once every log before it has passed."""
        c = self._logs
        new, error = [], None
        try:
            new.extend(self._logs_fn(len(c), stop))
        except Exception as exc:
            error = exc
        seq = c[-1:] + new
        if all(map(math.isfinite, new)) and all(map(gt, seq,
                                                    islice(seq, 1, None))):
            c += new
        else:
            for lv in new:
                if not math.isfinite(lv):
                    raise ValueError("delta is not finite at %d" % len(c))
                if c and not lv < c[-1]:
                    raise ValueError(
                        "delta is not strictly decreasing at %d" % len(c))
                c.append(lv)
        if error is not None:
            raise error

    def logs(self, N):
        """log(delta_n) for n < N, as a list."""
        self.log(max(N - 1, 0))
        return self._logs[:N]

    def __getitem__(self, n):
        vals = self._values
        if not 0 <= n < len(vals):
            self.log(n)
            vals.extend(map(math.exp, self._logs[len(vals):n + 1]))
        return vals[n]

    def values(self, N):
        """delta_n for n < N, and any realized beyond, as the cached list
        itself: read it, do not change it."""
        if N > 0:
            self[N - 1]
        return self._values

    def tail_bound(self, N):
        """Upper bound for sum of delta_n over n >= N, or None."""
        return None if self._tail is None else self._tail(N)

    @classmethod
    def exponential(cls):
        def logs_fn(start, stop):  # -n
            return map(neg, map(float, range(start, stop)))

        return cls(logs_fn, "exponential",
                   lambda N: math.exp(-N) / (1.0 - math.exp(-1.0)))

    @classmethod
    def harmonic(cls):
        def logs_fn(start, stop):  # -log(n + 1)
            return map(neg, map(math.log, range(start + 1, stop + 1)))

        return cls(logs_fn, "harmonic", lambda N: math.inf)

    @classmethod
    def geometric(cls, q):
        if not 0 < q < 1:
            raise ValueError("geometric ratio must be in (0, 1)")
        lq = math.log(q)

        def logs_fn(start, stop):  # n log q
            return map(mul, range(start, stop), repeat(lq))

        return cls(logs_fn, "geometric:%r" % q, lambda N: q ** N / (1.0 - q))

    @classmethod
    def powerlog(cls, a, b):
        """delta_n = ln^b(n + 2 + s) / (n + 1 + s)^a, with the index shift s
        chosen so the sequence decreases from the start."""
        if not (a > 0 and b >= 0):  # NaN too
            raise ValueError("need a > 0 and b >= 0")
        try:
            shift = max(0, math.ceil(math.exp(b / a)) - 2)
        except OverflowError:
            raise ValueError("powerlog:%r,%r needs an index shift past the "
                             "float range" % (a, b))

        def logs_fn(start, stop):
            # b log(log(n + 2 + s)) - a log(n + 1 + s), each log(m) taken
            # once for both terms
            lm = list(map(math.log,
                          range(start + 1 + shift, stop + 2 + shift)))
            return map(sub, map(mul, repeat(b), map(math.log, lm[1:])),
                       map(mul, repeat(a), lm))

        tail = None
        if a > 1 and b == 0:
            def tail(N):
                return (N + shift) ** (1 - a) / (a - 1)
        return cls(logs_fn, "powerlog:%r,%r" % (a, b), tail)

    @classmethod
    def table(cls, values):
        vals = [float(v) for v in values]
        for v in vals:
            if v <= 0:
                raise ValueError("table entries must be positive")

        def logs_fn(start, stop):
            yield from map(math.log, vals[start:stop])
            if stop > len(vals):
                raise IndexError("delta table exhausted at index %d"
                                 % len(vals))

        return cls(logs_fn, "table[%d]" % len(vals))


def delta_from_name(name):
    """Parse a delta family descriptor like "exp", "harmonic",
    "powerlog:1.5,1" or "geom:0.5".  A family's malformed or out-of-range
    values are refused with a message that names the descriptor."""
    if name in ("exp", "exponential"):
        return DeltaSequence.exponential()
    if name == "harmonic":
        return DeltaSequence.harmonic()
    try:
        if name.startswith("powerlog:"):
            a, b = (float(x) for x in name.split(":", 1)[1].split(","))
            return DeltaSequence.powerlog(a, b)
        if name.startswith("geom:"):
            return DeltaSequence.geometric(float(name.split(":", 1)[1]))
    except ValueError as exc:
        raise ValueError("bad delta %r: %s" % (name, exc)) from None
    raise ValueError("unknown delta family %r" % name)


# ---------------------------------------------------------------------------
# trees of words and choice functions


def build_tree(table):
    """Check that a language table is a tree of words and return it.

    Every word below the depth must have a child, so that every node lies on
    a root-to-leaf path.  A leaf shorter than the depth has none; the least
    of the shortest is the first that a walk of the levels would meet.
    """
    N = table.depth
    short = min((v for v in table.sorted_leaves if len(v) < N), key=len,
                default=None)
    if short is not None:
        raise StructuralError(
            "word %r at length %d has no extension" % (short, len(short)))
    return table


def spec_tree(spec, N):
    """A spec's depth-N tree of words from its sorted leaves, with no word
    levels built, after build_tree's check."""
    return build_tree(LanguageTable(N, *_leaves(spec, N)))


def choice_function(tree, policy="canonical", seed=None):
    """A choice function: {branching word: selected child}, the only
    selections a spectral distance reads (see metrics), since every other
    word has one child.

    policy "canonical" takes the lexicographically least child everywhere;
    "seeded-random" draws children uniformly from a 64-bit seed, one draw
    per branching word in lexicographic order.
    """
    if policy == "canonical":
        pick = itemgetter(0)
    elif policy == "seeded-random":
        pick = random.Random(seed).choice
    else:
        raise ValueError("unknown policy %r" % policy)
    leaves = tree.sorted_leaves
    return {v: leaves[pick(bounds[:-1])][:len(v) + 1]
            for v, bounds in tree.forks.items()}


@dataclass(frozen=True)
class MetricGraph:
    """Quotient of the horizontal edges by a choice function.

    Vertices are the depth-N representative words; edges carry the shortest
    length among the horizontal edges that collapsed onto the pair.
    """

    vertices: tuple
    index: dict = field(compare=False)
    edges: dict = field(compare=False)  # (i, j) with i < j -> length


def approximation_graph(tree, tau, delta):
    """The metric graph Gamma(tau) for edge lengths drawn from delta.

    A word's representative is the leaf its selections lead to: its one
    leaf, or that of the branching word with the same leaves, which is the
    representative of its selected child.  The branching words are read
    deepest first, so the last one read whose leaves start at leaf i is
    the one below a child starting there, if any: rep[i] holds its
    representative, or i."""
    vertices = tree.leaves()
    index = {w: i for i, w in enumerate(vertices)}
    rep = list(range(len(vertices)))
    lengths, edges = delta.values(tree.depth), {}
    for v, bounds in reversed(tree.forks.items()):
        reps = [rep[lo] for lo in bounds[:-1]]
        chosen = bisect_left(vertices, tau[v], bounds[0])
        rep[bounds[0]] = reps[bounds.index(chosen)]
        length = lengths[len(v)]
        for ri, rj in combinations(reps, 2):
            key = (ri, rj) if ri < rj else (rj, ri)
            old = edges.get(key)
            if old is None or length < old:
                edges[key] = length
    return MetricGraph(vertices, index, edges)


# ---------------------------------------------------------------------------
# Lipschitz and continuity diagnostics: one engine on a branching skeleton


@dataclass(frozen=True)
class OrderDiagnostic:
    value: float
    witness_node: str
    witness_path: str
    per_level: tuple = field(default=(), compare=False)


def _push(lg, parent):
    """B and its argmax on a skeleton in topological order, where node i
    has log delta lg[i] and parent parent[i] < i: B[i] is the largest sum
    of delta_j / delta_i over the nodes j of a path below i, in ratios that
    divide by no delta; arg[i] is its child (the last pushed on ties) or 0."""
    B = [0.0] * len(lg)
    arg = [0] * len(lg)
    exp = math.exp
    for i in range(len(lg) - 1, 0, -1):
        p = parent[i]
        cand = exp(lg[i] - lg[p]) * (1.0 + B[i])
        if cand >= B[p]:
            B[p] = cand
            arg[p] = i
    return B, arg


def _chain_diagnostics(chain, delta, N):
    """(C(N), W(N)) on a branching chain at least N deep: node m is the
    branching word at level m, and the failure array gives its parent."""
    word = chain[0][:N]
    B = _push(delta.logs(len(word) or 1), chain[1])[0]
    m = B.index(max(B))
    return (OrderDiagnostic(B[m], word[:m][::-1], ""),
            OrderDiagnostic(delta[0] * B[0], "", word[::-1]))


def _tree_diagnostics(table, delta, N):
    """(C(N), W(N)) on a checked tree of words cut at depth N, from its
    sorted leaves, its forks and its skeleton, cut again at N below the
    table depth (see words._skeleton).  C is the largest B over branching
    nodes, at the lowest level and then the least word; W is delta_0 B at
    the root.  A path follows the argmax children, then the least children
    to depth N: the least leaf below."""
    leaves, forks = table.sorted_leaves, table.forks
    words, parent, level = (table.skeleton if N == table.depth
                            else _skeleton(forks, N))
    logs = delta.logs(N)
    B, arg = _push([logs[m] for m in level], parent)

    def descend(j):
        while arg[j]:
            j = arg[j]
        return leaves[bisect_left(leaves, words[j])][:N]

    w = OrderDiagnostic(delta[0] * B[0], "", descend(0))
    nodes = range(0 if "" in forks else 1, len(words))
    top = {}
    for j in nodes:
        if B[j] > top.get(level[j], -1.0):
            top[level[j]] = B[j]
    series = tuple(sorted(top.items()))
    m, value = max(series, key=itemgetter(1), default=(0, 0.0))
    if not value > 0.0:
        return OrderDiagnostic(0.0, "", ""), w
    j = next(j for j in nodes if level[j] == m and B[j] == value)
    return OrderDiagnostic(value, words[j], descend(j), series), w


def order_diagnostics(source, delta, schedule):
    """[(C(N), W(N)) for N in an increasing schedule] from one structure:
    source is a tree of words as deep as the schedule, whose forks and
    skeleton are read once per table and kept on it, or a spec, whose
    branching chain (built once per spec and depth, see
    words._branching_chain) or else the forks and skeleton of a table on
    its sorted leaves are read at the last depth, with no word
    levels built.  The leaves of either must pass the tree check of
    build_tree.  Each depth costs one push for both."""
    if isinstance(source, LanguageTable):
        if schedule[-1] > source.depth:
            raise ValueError("schedule goes below the tree depth")
        table = build_tree(source)
    else:
        chain = _branching_chain(source, schedule[-1])
        if chain is not None:
            return [_chain_diagnostics(chain, delta, N) for N in schedule]
        table = spec_tree(source, schedule[-1])
    return [_tree_diagnostics(table, delta, N) for N in schedule]


# (C(N), W(N)) of the (tree or spec, delta, N) asked for last, so that C
# and W of one of them share one push
_RESULTS = RecentValues(4)


def _diagnostics(source, delta, N, chain_only=False):
    """order_diagnostics of a tree of words or a spec at the one depth N,
    kept in _RESULTS; with chain_only, a spec with no branching chain is
    refused with TypeError."""
    table = isinstance(source, LanguageTable)
    key = (source if table else spec_key(source), delta, N)
    pair = None if chain_only and table else _RESULTS.get(key)
    if pair is None:
        if chain_only and (table or _branching_chain(source, N) is None):
            raise TypeError("no fast engine for %r" % (source,))
        pair = _RESULTS.put(key, order_diagnostics(source, delta, (N,))[0])
    return pair


def lipschitz_estimate(tree, delta):
    """C(N): the largest ratio T(v)/delta_m over branching nodes v at level
    m, where T(v) is the largest delta sum over the branching nodes of one
    path below v."""
    return _diagnostics(tree, delta, tree.depth)[0]


def continuity_witness(tree, delta):
    """W(N): the maximal branching-weighted delta sum over root-to-leaf
    paths, levels 1 through N-1."""
    return _diagnostics(tree, delta, tree.depth)[1]


def lipschitz_estimate_fast(spec, delta, N):
    """C(N) for full shifts and Sturmian specs on their branching chain,
    without a table; agrees with lipschitz_estimate on the tree of words
    and scales to depths in the thousands."""
    return _diagnostics(spec, delta, N, chain_only=True)[0]


def continuity_witness_fast(spec, delta, N):
    """W(N) for full shifts and Sturmian specs on their branching chain."""
    return _diagnostics(spec, delta, N, chain_only=True)[1]


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
