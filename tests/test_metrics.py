import dataclasses
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ultratree import tree as tree_module, words
from ultratree.words import (ExplicitWindow, FullShift, RecentValues,
                             SturmianCF, Substitution, alphabet,
                             border_array, fibonacci_spec, language_table,
                             level_profile)
from ultratree.tree import (DeltaSequence, MetricGraph, OrderDiagnostic,
                            StructuralError, approximation_graph, build_tree,
                            choice_function, order_diagnostics)
from ultratree.metrics import (DepthMismatchError, UnreachableVertexError,
                               common_prefix_length, continuity_witness,
                               continuity_witness_fast, delta_from_name,
                               graph_distance_oracle, graph_distances,
                               inf_spectral_distance, lipschitz_estimate,
                               lipschitz_estimate_fast, spectral_distance,
                               sup_spectral_distance, trend_verdict,
                               ultrametric_distance)

from oracles import (children_of, delta_log_at, dijkstra_distances,
                     enumerate_choice_functions, loop_log,
                     spectral_distance_range_bruteforce, table_log_at,
                     tree_for)

SPECS = (FullShift(2), FullShift(3), fibonacci_spec(),
         SturmianCF((), ("linear",)))

SCHEDULE_SUBSTITUTIONS = (
    {"a": "ab", "b": "ba"},              # Thue-Morse
    {"a": "ab", "b": "a"},               # Fibonacci
    {"a": "abc", "b": "bc", "c": "a"},
    {"a": "aab", "b": "b"},              # needs a window of about 2^N
    {"a": "ab", "b": "ac", "c": "a"},    # Tribonacci
)


# ---------------------------------------------------------------------------
# delta sequences


def test_delta_families():
    exp = DeltaSequence.exponential()
    assert exp[0] == 1.0
    assert exp[3] == pytest.approx(math.exp(-3))
    harm = DeltaSequence.harmonic()
    assert [harm[n] for n in range(3)] == [1.0, 0.5, pytest.approx(1 / 3)]
    geo = DeltaSequence.geometric(0.5)
    assert geo[4] == pytest.approx(0.5 ** 4)


def test_delta_ratio_survives_underflow():
    exp = DeltaSequence.exponential()
    assert exp[800] == 0.0  # underflows as a value
    assert math.exp(exp.log(801) - exp.log(800)) == \
        pytest.approx(math.exp(-1))
    assert math.exp(exp.log(800) - exp.log(790)) == \
        pytest.approx(math.exp(-10))


def test_delta_table_and_errors():
    tab = DeltaSequence.table([1.0, 0.25, 0.1])
    assert tab[1] == 0.25
    with pytest.raises(IndexError):
        tab[3]
    with pytest.raises(IndexError):
        tab[-1]
    with pytest.raises(ValueError):
        DeltaSequence.table([1.0, 0.0])
    increasing = DeltaSequence.table([0.5, 0.7])
    with pytest.raises(ValueError):
        increasing[1]
    with pytest.raises(ValueError):
        DeltaSequence.geometric(1.5)


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("values", (
    [0.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0],      # runs out at 8
    [0.0, -1.0, -2.0, math.inf, -4.0, -5.0],
    [0.0, -1.0, -2.0, -3.0, math.nan, -5.0, -6.0],
    [0.0, -1.0, -2.0, -3.0, -4.0, -math.inf, -7.0],
    [0.0, -1.0, -2.0, -2.0, -3.0, -4.0],                   # equal at 3
    [0.0, -1.0, -2.0, -1.5, math.nan, -4.0],               # rises at 3
    [0.5, -1.0, -0.5, -3.0, -4.0, math.inf, -6.0, -7.0],   # two faults
    [math.nan, 0.0, -1.0],
    [-math.inf]))
def test_bulk_delta_logs_fail_like_the_loop(values):
    def log_fn(n):
        if n >= len(values):
            raise IndexError("delta table exhausted at index %d" % n)
        return values[n]

    def logs_fn(start, stop):
        return map(log_fn, range(start, stop))

    for reads in ((0,), (2,), (5,), (9,), (1, 4, 12), (12, 0, 12, 6)):
        delta, logs = DeltaSequence(logs_fn, "t"), []
        for n in reads:
            assert outcome(delta.log, n) == outcome(loop_log, log_fn, logs, n)
            assert delta._logs == logs


def bits(logs):
    # float.hex tells -0.0 from 0.0, as == does not
    return [x.hex() for x in logs]


def test_bulk_delta_logs_equal_the_loop_on_every_family():
    N = 12000
    for name in ("exp", "harmonic", "geom:0.5", "geom:0.1", "powerlog:1.5,1",
                 "powerlog:0.5,2", "powerlog:2,0", "powerlog:1,3"):
        want = []
        loop_log(delta_log_at(name), want, N - 1)
        for split in (1, 7, 100, 5000):
            delta = delta_from_name(name)
            for stop in range(split, N + split, split):
                delta.log(min(stop, N) - 1)
            assert bits(delta.logs(N)) == bits(want), (name, split)
        # the sign of delta's log at 0: -0.0 for exp, harmonic and geom
        assert bits(delta_from_name(name).logs(1)) == bits(want[:1]), name


def test_bulk_table_logs_equal_the_loop():
    values = [1.0, 0.5, 0.25, 0.125, 1e-300, 5e-324]
    for split in (1, 2, 4, 7):
        delta, logs = DeltaSequence.table(values), []
        for stop in range(split, 8 + split, split):
            n = min(stop, 8) - 1
            assert (outcome(delta.log, n)
                    == outcome(loop_log, table_log_at(values), logs, n))
            assert bits(delta._logs) == bits(logs)
    short = DeltaSequence.table([1.0, 0.5, 0.25])
    with pytest.raises(IndexError,
                       match=r"^delta table exhausted at index 3$"):
        short.logs(10)
    assert short.logs(3) == [math.log(v) for v in (1.0, 0.5, 0.25)]


def test_delta_powerlog_decreasing():
    for a, b in ((1.5, 0.0), (1.0, 1.0), (0.5, 2.0)):
        d = DeltaSequence.powerlog(a, b)
        vals = [d[n] for n in range(200)]
        assert all(x > y for x, y in zip(vals, vals[1:]))


def test_delta_tail_bounds():
    exp = DeltaSequence.exponential()
    assert exp.tail_bound(10) >= sum(exp[n] for n in range(10, 200))
    assert DeltaSequence.harmonic().tail_bound(10) == math.inf
    pl = DeltaSequence.powerlog(2.0, 0.0)
    assert pl.tail_bound(10) >= sum(pl[n] for n in range(10, 5000))


def test_delta_from_name():
    assert delta_from_name("exp").name == "exponential"
    assert delta_from_name("harmonic").name == "harmonic"
    assert delta_from_name("geom:0.5")[1] == 0.5
    assert delta_from_name("powerlog:1.5,0").name == "powerlog:1.5,0.0"
    with pytest.raises(ValueError):
        delta_from_name("zeno")


# ---------------------------------------------------------------------------
# distances


def test_ultrametric_basics():
    delta = DeltaSequence.exponential()
    assert common_prefix_length("abab", "abba") == 2
    assert ultrametric_distance("abab", "abab", delta) == 0.0
    assert ultrametric_distance("abab", "abba", delta) == delta[2]
    with pytest.raises(DepthMismatchError):
        ultrametric_distance("ab", "abc", delta)


def test_ultrametric_law():
    delta = DeltaSequence.exponential()
    tree = tree_for(FullShift(2), 6)
    rng = random.Random(0)
    leaves = tree.leaves()
    for _ in range(200):
        x, y, z = (rng.choice(leaves) for _ in range(3))
        d = ultrametric_distance
        assert d(x, y, delta) <= max(d(x, z, delta), d(y, z, delta)) + 1e-15


def test_sandwich_property():
    delta = DeltaSequence.exponential()
    for spec in SPECS:
        tree = tree_for(spec, 6)
        leaves = tree.leaves()
        rng = random.Random(1)
        taus = [choice_function(tree),
                choice_function(tree, policy="seeded-random", seed=5)]
        for _ in range(100):
            x, y = rng.choice(leaves), rng.choice(leaves)
            lo = inf_spectral_distance(tree, delta, x, y)
            hi = sup_spectral_distance(tree, delta, x, y)
            assert lo == ultrametric_distance(x, y, delta)
            for tau in taus:
                d = spectral_distance(tree, tau, delta, x, y)
                assert lo - 1e-15 <= d <= hi + 1e-15


def test_spectral_distance_matches_graph_oracle():
    delta = DeltaSequence.exponential()
    for spec in SPECS:
        tree = tree_for(spec, 6)
        tau = choice_function(tree, policy="seeded-random", seed=9)
        graph = approximation_graph(tree, tau, delta)
        reps = tree.leaves()  # every leaf represents itself
        rng = random.Random(2)
        pairs = [(rng.choice(reps), rng.choice(reps)) for _ in range(40)]
        pairs = [(x, y) for x, y in pairs if x != y]
        dists = graph_distances(graph, pairs)
        for (x, y), dg in zip(pairs, dists):
            dc = spectral_distance(tree, tau, delta, x, y)
            assert abs(dc - dg) <= 1e-12
            assert abs(graph_distance_oracle(graph, x, y) - dg) <= 1e-15


def test_triangle_inequality_on_representatives():
    delta = DeltaSequence.exponential()
    tree = tree_for(FullShift(2), 6)
    tau = choice_function(tree, policy="seeded-random", seed=4)
    reps = tree.leaves()  # every leaf represents itself
    rng = random.Random(3)
    for _ in range(100):
        x, y, z = (rng.choice(reps) for _ in range(3))
        dxy = spectral_distance(tree, tau, delta, x, y)
        dxz = spectral_distance(tree, tau, delta, x, z)
        dzy = spectral_distance(tree, tau, delta, z, y)
        assert dxy <= dxz + dzy + 1e-12


def test_bruteforce_range_matches_global_enumeration():
    delta = DeltaSequence.exponential()
    # full:2 branches at its 7 words below depth 3; Fibonacci at 1 of the
    # n + 1 words of each level, and a choice function selects there alone
    for spec, N, forks in ((FullShift(2), 3, 7), (fibonacci_spec(), 6, 6),
                           (ExplicitWindow("abaababaab" * 2), 5, 4)):
        tree = tree_for(spec, N)
        leaves = tree.leaves()
        taus = list(enumerate_choice_functions(tree))
        assert len(taus) == 2 ** forks
        assert all(len(tau) == forks for tau in taus)
        for x in leaves:
            for y in leaves:
                if x >= y:
                    continue
                vals = [spectral_distance(tree, tau, delta, x, y)
                        for tau in taus]
                lo, hi = spectral_distance_range_bruteforce(tree, delta, x,
                                                            y)
                assert min(vals) == lo and max(vals) == hi


def test_extremes_equal_closed_forms():
    delta = DeltaSequence.exponential()
    for spec in SPECS:
        tree = tree_for(spec, 4)
        leaves = tree.leaves()
        for x in leaves:
            for y in leaves:
                if x >= y:
                    continue
                lo, hi = spectral_distance_range_bruteforce(tree, delta,
                                                            x, y)
                assert lo == ultrametric_distance(x, y, delta)
                assert hi == sup_spectral_distance(tree, delta, x, y)


def two_tails_by_prefix(delta, xi, eta, flagged):
    """The per-prefix loop, kept as the oracle of the closed forms: delta at
    the fork m plus delta_n for each level m < n < len(w) that flagged(w, n)
    marks on either point w, each tail summed ascending from 0.0."""
    if xi == eta:
        return 0.0
    m = common_prefix_length(xi, eta)
    tail_x = tail_y = 0.0
    for n in range(m + 1, len(xi)):
        if flagged(xi, n):
            tail_x += delta[n]
        if flagged(eta, n):
            tail_y += delta[n]
    return delta[m] + tail_x + tail_y


def spectral_by_prefix(tree, tau, delta, xi, eta):
    children = children_of(tree)

    def chosen(v):
        """tau's child of v: its selection where v branches, else the one
        child there is."""
        cs = children[v]
        return tau[v] if len(cs) > 1 else cs[0]

    return two_tails_by_prefix(delta, xi, eta,
                               lambda w, n: chosen(w[:n])[n] != w[n])


def sup_by_prefix(tree, delta, xi, eta):
    children = children_of(tree)
    return two_tails_by_prefix(delta, xi, eta,
                               lambda w, n: len(children[w[:n]]) > 1)


def distance_trees():
    """Trees of words: full shifts, doubled random windows cut at most one
    below their half, and the schedule substitutions."""
    full = st.sampled_from(((1, 12), (2, 8), (3, 5))).flatmap(
        lambda kd: st.tuples(st.just(FullShift(kd[0])),
                             st.integers(1, kd[1])))
    window = st.tuples(
        st.integers(1, 3).flatmap(lambda k: st.text(alphabet(k), min_size=1,
                                                   max_size=30)),
        st.integers(1, 12)).map(
        lambda t: (ExplicitWindow(t[0] * 2), min(t[1], len(t[0]) + 1)))
    subst = st.tuples(st.sampled_from(SCHEDULE_SUBSTITUTIONS),
                      st.integers(1, 12)).map(
        lambda rN: (Substitution.from_rules(rN[0], "a"), rN[1]))
    return st.one_of(full, window, subst).map(lambda sN: tree_for(*sN))


@settings(max_examples=200, deadline=None)
@given(distance_trees(), st.integers(0, 2 ** 64 - 1),
       st.sampled_from(("exp", "harmonic", "geom:0.5", "geom:0.01",
                        "powerlog:1.5,1")),
       st.data())
def test_closed_forms_equal_per_prefix_loops(tree, seed, delta_name, data):
    # queries at mixed levels in random order, each answered by its own
    # walk of the tree's skeleton
    delta = delta_from_name(delta_name)
    taus = (choice_function(tree),
            choice_function(tree, policy="seeded-random", seed=seed))
    queries = data.draw(st.lists(st.tuples(
        st.integers(0, tree.depth), st.integers(0, 2 ** 32),
        st.integers(0, 2 ** 32), st.integers(0, 2)), min_size=1,
        max_size=40), label="queries")
    for n, i, j, which in queries:
        words = tree.levels[n]
        x, y = words[i % len(words)], words[j % len(words)]
        if which == 2:
            assert sup_spectral_distance(tree, delta, x, y) == \
                sup_by_prefix(tree, delta, x, y)
        else:
            tau = taus[which]
            assert spectral_distance(tree, tau, delta, x, y) == \
                spectral_by_prefix(tree, tau, delta, x, y)


@st.composite
def weighted_graphs(draw):
    """Graphs of one to three components, each a random spanning tree with
    random extra edges, so with cycles.  The first component holds a
    triangle v0 v1 v2 whose direct edge v0 v2 is longer than its two-hop
    path, so that an elimination must keep a shortcut."""
    weight = st.floats(1e-3, 1e3)
    sizes = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    sizes[0] = max(sizes[0], 3)
    edges, start = {}, 0
    for size in sizes:
        vertex = st.integers(start, start + size - 1)
        for k in range(1, size):
            edges[(draw(st.integers(start, start + k - 1)), start + k)] = \
                draw(weight)
        for i, j in draw(st.lists(st.tuples(vertex, vertex),
                                  max_size=2 * size)):
            if i != j:
                edges[min(i, j), max(i, j)] = draw(weight)
        start += size
    a, b = draw(weight), draw(weight)
    edges.update({(0, 1): a, (1, 2): b, (0, 2): a + b + draw(weight)})
    vertices = tuple("v%d" % i for i in range(start))
    return MetricGraph(vertices, {w: i for i, w in enumerate(vertices)},
                       edges)


def assert_matches_dijkstra(graph, pairs):
    """graph_distances on the reachable pairs equals the heapq Dijkstra
    within 1e-12 relative, 0.0 on a pair (u, u); each unreachable pair is
    refused by name."""
    want = dijkstra_distances(graph, pairs)
    reachable = [p for p, d in zip(pairs, want) if d < math.inf]
    got = iter(graph_distances(graph, reachable))
    for (u, v), d in zip(pairs, want):
        if d < math.inf:
            g = next(got)
            assert g == 0.0 if u == v else math.isclose(g, d, rel_tol=1e-12)
        else:
            with pytest.raises(UnreachableVertexError) as exc:
                graph_distances(graph, [(u, v)])
            assert str(exc.value) == \
                "vertices %r and %r are disconnected" % (u, v)


@settings(max_examples=200, deadline=None)
@given(weighted_graphs(), st.data())
def test_graph_distances_match_heapq_dijkstra(graph, data):
    vertex = st.sampled_from(graph.vertices)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1,
                               max_size=30), label="pairs")
    x = data.draw(vertex, label="x")
    assert_matches_dijkstra(graph, pairs + [(x, x), ("v0", "v2")])
    assert graph_distances(graph, [("v0", "v2")])[0] < graph.edges[0, 2]


def approximation_graphs():
    """Approximation graphs of the distance trees, which hold full:3 and
    random windows, and of full:4, under seeded-random choice functions."""
    full4 = st.integers(1, 4).map(lambda N: tree_for(FullShift(4), N))
    return st.tuples(st.one_of(distance_trees(), full4),
                     st.integers(0, 2 ** 32),
                     st.sampled_from(("exp", "harmonic", "geom:0.5",
                                      "powerlog:1.5,1"))).map(
        lambda t: approximation_graph(
            t[0], choice_function(t[0], policy="seeded-random", seed=t[1]),
            delta_from_name(t[2])))


@settings(max_examples=100, deadline=None)
@given(approximation_graphs(), st.data())
def test_graph_distances_match_heapq_dijkstra_on_approximation_graphs(
        graph, data):
    vertex = st.sampled_from(graph.vertices)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1,
                               max_size=30), label="pairs")
    assert_matches_dijkstra(graph, pairs)


def test_two_choice_functions_keep_their_own_deviation_levels():
    delta = DeltaSequence.harmonic()
    tree = tree_for(FullShift(2), 6)
    taus = [choice_function(tree),
            choice_function(tree, policy="seeded-random", seed=3)]
    x, y = "aaaaaa", "bbbbbb"
    got = [spectral_distance(tree, tau, delta, x, y) for tau in taus * 2]
    want = [spectral_by_prefix(tree, tau, delta, x, y) for tau in taus * 2]
    assert got == want
    assert got[0] != got[1]


def test_word_outside_the_tree_is_named():
    delta = DeltaSequence.exponential()
    tree = tree_for(FullShift(2), 3)
    tau = choice_function(tree)
    for x, y in (("aaa", "zzz"), ("zzz", "aaa"), ("aba", "abz")):
        bad = x if "z" in x else y
        with pytest.raises(ValueError, match=repr(bad)):
            sup_spectral_distance(tree, delta, x, y)
        with pytest.raises(ValueError, match=repr(bad)):
            spectral_distance(tree, tau, delta, x, y)


def test_thue_morse_distances_at_512_keep_no_per_node_levels():
    # 414,297 nodes but 1,534 leaves: a query walks the branching words of
    # its points' paths, where per-node tuples of levels peaked at 37 MB
    tree = tree_for(Substitution.from_rules({"a": "ab", "b": "ba"}, "a"),
                    512)
    tau = choice_function(tree, policy="seeded-random", seed=17)
    delta = DeltaSequence.harmonic()
    leaves = tree.leaves()
    rng = random.Random(8)
    pairs = [(rng.choice(leaves), rng.choice(leaves)) for _ in range(1000)]
    tracemalloc.start()
    try:
        got = [(sup_spectral_distance(tree, delta, x, y),
                spectral_distance(tree, tau, delta, x, y)) for x, y in pairs]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
    assert got[:20] == [(sup_by_prefix(tree, delta, x, y),
                         spectral_by_prefix(tree, tau, delta, x, y))
                        for x, y in pairs[:20]]


def refuse_levels(*args):
    raise AssertionError("the word levels were read")


@pytest.mark.parametrize("spec, N", ((FullShift(2), 7), (FullShift(3), 4),
                                     (fibonacci_spec(), 40),
                                     (ExplicitWindow("abaababaab" * 2), 7)))
def test_distances_read_neither_child_links_nor_levels(spec, N,
                                                       monkeypatch):
    tree = tree_for(spec, N)
    levels = tree.levels
    # a copy with no views kept, whose levels cannot be built
    bare = dataclasses.replace(tree)
    monkeypatch.setattr(words, "_tree_of_words", refuse_levels)
    tau = choice_function(bare, policy="seeded-random", seed=N)
    assert tau == choice_function(tree, policy="seeded-random", seed=N)
    delta = DeltaSequence.harmonic()
    approximation_graph(bare, tau, delta)
    rng = random.Random(N)
    for _ in range(200):
        level = levels[rng.randint(0, N)]
        x, y = rng.choice(level), rng.choice(level)
        assert sup_spectral_distance(bare, delta, x, y) == \
            sup_spectral_distance(tree, delta, x, y)
        assert spectral_distance(bare, tau, delta, x, y) == \
            spectral_distance(tree, tau, delta, x, y)


# ---------------------------------------------------------------------------
# order diagnostics


def harmonic_number(n):
    return sum(1.0 / k for k in range(1, n + 1))


def test_full_binary_harmonic_closed_forms():
    N = 12
    delta = DeltaSequence.harmonic()
    tree = tree_for(FullShift(2), N)
    w = continuity_witness(tree, delta)
    assert w.value == pytest.approx(harmonic_number(N) - 1.0)
    c = lipschitz_estimate(tree, delta)
    expected = max((m + 1) * (harmonic_number(N) - harmonic_number(m + 1))
                   for m in range(N))
    assert c.value == pytest.approx(expected)


def test_exponential_delta_bound():
    delta = DeltaSequence.exponential()
    bound = 1.0 / (math.e - 1.0)
    for spec in SPECS:
        tree = tree_for(spec, 10)
        assert lipschitz_estimate(tree, delta).value <= bound + 1e-12


def test_summable_delta_bounds_witness():
    delta = DeltaSequence.geometric(0.5)
    tree = tree_for(fibonacci_spec(), 12)
    w = continuity_witness(tree, delta)
    assert w.value <= sum(delta[n] for n in range(12))


def test_monotonicity_in_depth():
    delta = DeltaSequence.harmonic()
    prev_c, prev_w = 0.0, 0.0
    for N in range(2, 10):
        tree = tree_for(fibonacci_spec(), N)
        c = lipschitz_estimate(tree, delta).value
        w = continuity_witness(tree, delta).value
        assert c >= prev_c - 1e-15 and w >= prev_w - 1e-15
        prev_c, prev_w = c, w


def test_fast_engines_match_tree_engine():
    for delta in (DeltaSequence.exponential(), DeltaSequence.harmonic()):
        for spec, N in ((FullShift(2), 12), (FullShift(3), 8),
                        (fibonacci_spec(), 21),
                        (SturmianCF((), ("linear",)), 21)):
            tree = tree_for(spec, N)
            slow_c = lipschitz_estimate(tree, delta).value
            slow_w = continuity_witness(tree, delta).value
            fast_c = lipschitz_estimate_fast(spec, delta, N).value
            fast_w = continuity_witness_fast(spec, delta, N).value
            assert fast_c == pytest.approx(slow_c, abs=1e-12)
            assert fast_w == pytest.approx(slow_w, abs=1e-12)


def test_fast_engine_rejects_unsupported_spec():
    with pytest.raises(TypeError):
        lipschitz_estimate_fast(object(), DeltaSequence.harmonic(), 8)


def test_witnesses_reported():
    delta = DeltaSequence.harmonic()
    tree = tree_for(fibonacci_spec(), 8)
    c = lipschitz_estimate(tree, delta)
    assert isinstance(c, OrderDiagnostic)
    assert len(children_of(tree)[c.witness_node]) > 1
    assert len(c.witness_path) == 8
    assert c.per_level and all(v <= c.value + 1e-15
                               for _, v in c.per_level)


def fields(d):
    return d.value, d.witness_node, d.witness_path, d.per_level


def rebuilt_c_and_w(tree, delta):
    """C and W as two passes of the tree DP in absolute sums with a
    separate level scan for C: the oracle.  It runs in the arithmetic of
    the deltas, so exact Fractions give exact values and ties."""
    N = tree.depth
    children = children_of(tree)

    def dp():
        T = {w: 0 for w in tree.leaves()}
        arg = {w: None for w in tree.leaves()}
        for n in range(N - 1, -1, -1):
            for v in tree.levels[n]:
                best, best_c = -1, None
                for c in children[v]:
                    gain = 0
                    if len(c) <= N - 1 and len(children[c]) > 1:
                        gain = delta[len(c)]
                    if gain + T[c] > best:
                        best, best_c = gain + T[c], c
                T[v], arg[v] = best, best_c
        return T, arg

    def descend(arg, v):
        while arg.get(v) is not None:
            v = arg[v]
        return v

    T, arg = dp()
    best, best_v, series = 0, None, []
    for m in range(N):
        level_best, level_v = -1, None
        for v in tree.levels[m]:
            if len(children[v]) > 1 and T[v] / delta[m] > level_best:
                level_best, level_v = T[v] / delta[m], v
        if level_v is not None:
            series.append((m, level_best))
            if level_best > best:
                best, best_v = level_best, level_v
    c = OrderDiagnostic(0.0, "", "", ())
    if best_v is not None:
        c = OrderDiagnostic(best, best_v, descend(arg, best_v),
                            tuple(series))
    T, arg = dp()
    return c, OrderDiagnostic(T[""], "", descend(arg, ""), ())


def assert_matches(got, want, rel):
    """An engine's (C, W) against the oracle's: equal witnesses and
    per_level levels, values within rel relative.  The engine carries
    ratios and the oracle absolute sums, so only the floats may differ."""
    for d, e in zip(got, want):
        assert (d.witness_node, d.witness_path,
                [m for m, _ in d.per_level]) == \
            (e.witness_node, e.witness_path, [m for m, _ in e.per_level])
        assert [d.value] + [v for _, v in d.per_level] == pytest.approx(
            [float(e.value)] + [float(v) for _, v in e.per_level],
            rel=rel, abs=0)


def test_engine_matches_exact_oracle_where_delta_underflows():
    # geom:0.01 is below the smallest normal float from delta_154 on and
    # reaches 0.0 at delta_162; the oracle runs on exact powers of 1/100
    tree = tree_for(Substitution.from_rules({"a": "ab", "b": "ba"}, "a"),
                    160)
    q = Fraction(1, 100)
    exact = rebuilt_c_and_w(tree, [q ** n for n in range(160)])
    assert_matches(order_diagnostics(tree, delta_from_name("geom:0.01"),
                                     (160,))[0], exact, 1e-12)


def test_engine_runs_on_subnormal_delta():
    words = tree_for(FullShift(2), 3)
    for delta, exact in (
            (DeltaSequence.geometric(1e-200),
             [Fraction(1e-200) ** n for n in range(3)]),
            (DeltaSequence.table([1.0, 0.5, 1e-310]),
             [Fraction(1), Fraction(1, 2), Fraction(1e-310)])):
        assert_matches((lipschitz_estimate(words, delta),
                        continuity_witness(words, delta)),
                       rebuilt_c_and_w(words, exact), 1e-12)


def test_exact_tie_goes_to_the_lowest_level():
    # c (level 1) and bab (level 3) both have C = 7/6 here; a float oracle
    # that sums deltas gets 1.166666666666667 at bab, above c's
    # 1.1666666666666665 only by rounding, and names bab
    spec = ExplicitWindow("cbbabbbababababccccbbabbbababababccc")
    c = order_diagnostics(spec, DeltaSequence.harmonic(), (8,))[0][0]
    assert (c.value, c.witness_node) == (1.1666666666666665, "c")
    exact = rebuilt_c_and_w(tree_for(spec, 8),
                            [Fraction(1, n + 1) for n in range(8)])[0]
    assert (exact.value, exact.witness_node) == (Fraction(7, 6), "c")


def schedule_specs():
    full = st.sampled_from(((1, 12), (2, 8), (3, 5))).flatmap(
        lambda kd: st.tuples(st.just(FullShift(kd[0])),
                             st.integers(1, kd[1])))
    # a doubled word w + w has every factor shorter than |w| + 2 extended
    window = st.tuples(
        st.integers(1, 3).flatmap(lambda k: st.text(alphabet(k), min_size=1,
                                                   max_size=30)),
        st.booleans(), st.integers(1, 12)).map(
        lambda t: (ExplicitWindow(t[0] * (2 if t[1] else 1)), t[2]))
    subst = st.tuples(st.sampled_from(SCHEDULE_SUBSTITUTIONS),
                      st.integers(1, 12)).map(
        lambda rN: (Substitution.from_rules(rN[0], "a"), rN[1]))
    return st.one_of(full, window, subst)


# the rational deltas as exact Fractions, for the oracle's ties
EXACT_DELTAS = {"harmonic": lambda n: Fraction(1, n + 1),
                "geom:0.5": lambda n: Fraction(1, 2 ** n)}


def oracle_delta(delta_name, delta, N):
    """What the oracle sums at depth N: exact Fractions for a rational
    delta, so that it breaks ties exactly; the DeltaSequence otherwise."""
    if delta_name in EXACT_DELTAS:
        return [EXACT_DELTAS[delta_name](n) for n in range(N)]
    return delta


def check_schedule(spec, schedule, delta_name):
    """The engine on one structure for the whole schedule against the
    oracle on a table rebuilt at each depth."""
    depth = schedule[-1]
    delta = delta_from_name(delta_name)
    try:
        expected = [rebuilt_c_and_w(build_tree(language_table(spec, N)),
                                    oracle_delta(delta_name, delta, N))
                    for N in schedule]
    except StructuralError as exc:
        with pytest.raises(StructuralError, match=re.escape(str(exc))):
            order_diagnostics(spec, delta, schedule)
        return
    # a full shift has a chain; its tree of words is passed in to test the
    # tree engine
    source = spec
    if isinstance(spec, FullShift):
        source = build_tree(language_table(spec, depth))
    got = order_diagnostics(source, delta, schedule)
    assert len(got) == len(expected)
    for pair, want in zip(got, expected):
        assert_matches(pair, want, 1e-13)


@settings(max_examples=200, deadline=None)
@given(schedule_specs(), st.data(),
       st.sampled_from(("exp", "harmonic", "geom:0.5", "powerlog:1.5,1")))
def test_schedule_from_one_table_matches_rebuild_per_depth(spec_depth, data,
                                                          delta_name):
    spec, depth = spec_depth
    schedule = sorted(data.draw(st.sets(st.integers(1, depth), min_size=1),
                                label="schedule") | {depth})
    check_schedule(spec, schedule, delta_name)


def test_schedule_with_an_exact_tie_matches_the_exact_oracle():
    # c (level 1) and bab (level 3) tie at C = 7/6 at N = 8 (see
    # test_exact_tie_goes_to_the_lowest_level)
    check_schedule(ExplicitWindow("cbbabbbababababccccbbabbbababababccc"),
                   (3, 5, 8), "harmonic")


def test_chain_schedule_matches_fast_engines():
    # the full shift's chain is the path a^N with these failure links
    assert border_array("a" * 50) == [0, *range(50)]
    schedule = (1, 2, 5, 64, 300)
    for spec in (FullShift(1), FullShift(3)) + SPECS[2:]:
        for name in ("exp", "harmonic", "powerlog:1.5,1"):
            delta = delta_from_name(name)
            got = order_diagnostics(spec, delta, schedule)
            for N, (c, w) in zip(schedule, got):
                assert fields(c) == fields(
                    lipschitz_estimate_fast(spec, delta, N))
                assert fields(w) == fields(
                    continuity_witness_fast(spec, delta, N))


def test_schedule_deeper_than_tree_is_refused():
    tree = tree_for(fibonacci_spec(), 8)
    with pytest.raises(ValueError):
        order_diagnostics(tree, DeltaSequence.harmonic(), (4, 9))


def test_trend_verdict():
    assert trend_verdict([1.0, 1.001]) == "yes"
    assert trend_verdict([1.0, 1.5]) == "no"
    assert trend_verdict([1.0, 1.1]) == "undecided"
    assert trend_verdict([1.0]) == "undecided"


# ---------------------------------------------------------------------------
# structures shared between calls: chains, diagnostic results, forks and
# skeletons


FIB, LIN, POW2 = (fibonacci_spec(), SturmianCF((1,), ("linear",)),
                  SturmianCF((1,), ("pow2",)))


@pytest.fixture
def fresh_caches(monkeypatch):
    """Empty chain and result caches of the same sizes, for one test."""
    monkeypatch.setattr(words, "_CHAINS", RecentValues(words._CHAINS.size))
    monkeypatch.setattr(tree_module, "_RESULTS",
                        RecentValues(tree_module._RESULTS.size))


def cold(spec, delta_name, N):
    """(C(N), W(N)) from a chain and a delta made for this call alone."""
    return tree_module._chain_diagnostics(words._build_chain(spec, N),
                                          delta_from_name(delta_name), N)


@pytest.mark.parametrize("calls", (
    # deeper depth first, then shallower, then deeper than any before
    ((FIB, "harmonic", 300, "C"), (FIB, "harmonic", 40, "W"),
     (FIB, "harmonic", 40, "C"), (FIB, "harmonic", 700, "W"),
     (FIB, "harmonic", 300, "W"), (FIB, "harmonic", 700, "C")),
    # W before C
    ((LIN, "exp", 64, "W"), (LIN, "exp", 64, "C"), (LIN, "exp", 128, "W"),
     (LIN, "exp", 128, "C")),
    # two deltas interleaved
    ((POW2, "exp", 200, "C"), (POW2, "harmonic", 200, "C"),
     (POW2, "exp", 200, "W"), (POW2, "harmonic", 200, "W"),
     (POW2, "exp", 100, "C"), (POW2, "harmonic", 100, "W")),
    # a different spec in between
    ((FIB, "harmonic", 100, "C"), (FullShift(3), "harmonic", 100, "C"),
     (LIN, "harmonic", 100, "W"), (FIB, "harmonic", 100, "W"),
     (FullShift(3), "harmonic", 50, "W"), (FullShift(1), "harmonic", 50, "C"),
     (FIB, "harmonic", 100, "C"))))
def test_fast_engines_equal_a_cold_computation_in_any_order(fresh_caches,
                                                            calls):
    deltas = {}
    for spec, name, N, which in calls:
        delta = deltas.setdefault(name, delta_from_name(name))
        engine = lipschitz_estimate_fast if which == "C" else \
            continuity_witness_fast
        got = engine(spec, delta, N)
        assert fields(got) == fields(cold(spec, name, N)[which == "W"])
        # order_diagnostics reads the same chains
        assert [tuple(map(fields, pair)) for pair in order_diagnostics(
            spec, delta, (N // 2 + 1, N))] == [
            tuple(map(fields, cold(spec, name, M))) for M in (N // 2 + 1, N)]


def test_sweep_builds_one_chain_per_depth_increase_and_one_push_per_pair(
        fresh_caches, monkeypatch):
    built, pushed = [], []
    build, push = words._build_chain, tree_module._chain_diagnostics
    monkeypatch.setattr(words, "_build_chain",
                        lambda spec, N: built.append(N) or build(spec, N))
    monkeypatch.setattr(tree_module, "_chain_diagnostics",
                        lambda *a: pushed.append(a[2]) or push(*a))
    for name in ("exp", "harmonic", "powerlog:1.5,1"):
        delta = delta_from_name(name)
        for N in (100, 200, 400):
            for spec in (POW2, FullShift(2)):
                lipschitz_estimate_fast(spec, delta, N)
                continuity_witness_fast(spec, delta, N)
    assert built == [100, 100, 200, 200, 400, 400]
    assert pushed == [100, 100, 200, 200, 400, 400] * 3
    order_diagnostics(POW2, delta, (50, 200, 400))
    assert len(built) == 6


def test_a_tables_c_and_w_share_one_push(fresh_caches, monkeypatch):
    pushes = []
    push = tree_module._push
    monkeypatch.setattr(tree_module, "_push",
                        lambda *a: pushes.append(len(a[0])) or push(*a))
    table, again = tree_for(FIB, 30), tree_for(FIB, 30)
    for name in ("exp", "harmonic"):
        delta = delta_from_name(name)
        c = lipschitz_estimate(table, delta)
        w = continuity_witness(table, delta)
        # an equal table reads the same entry
        assert lipschitz_estimate(again, delta) is c
        assert continuity_witness(again, delta) is w
        assert (fields(c), fields(w)) == tuple(map(
            fields, order_diagnostics(again, delta, (30,))[0]))
        # a table has no branching chain, cached or not
        with pytest.raises(TypeError):
            lipschitz_estimate_fast(table, delta, 30)
    # the skeleton of Fibonacci at 30 holds its 30 branching words, one per
    # level; one push per delta for C and W, one per order_diagnostics call
    assert pushes == [30] * 4
    delta = delta_from_name("exp")
    lipschitz_estimate_fast(FIB, delta, 30)
    continuity_witness_fast(FIB, delta, 30)
    assert pushes == [30] * 5


def test_caches_stay_small(fresh_caches):
    delta = DeltaSequence.harmonic()
    for k in range(1, 30):
        lipschitz_estimate_fast(SturmianCF((k,), ("constant", 1)), delta, 64)
    assert len(words._CHAINS.entries) == words._CHAINS.size <= 8
    assert len(tree_module._RESULTS.entries) == tree_module._RESULTS.size \
        <= 8


def test_spec_with_list_fields_is_served_and_followed(fresh_caches):
    spec = SturmianCF(mu=[1, 2], tail=("constant", 1))
    with pytest.raises(TypeError):
        hash(spec)
    delta = DeltaSequence.harmonic()
    for mu in ((1, 2), (1, 3)):
        spec.mu[1] = mu[1]
        want = SturmianCF(mu, ("constant", 1))
        for N in (5, 50, 20):
            assert fields(lipschitz_estimate_fast(spec, delta, N)) == \
                fields(cold(want, "harmonic", N)[0])
            assert fields(continuity_witness_fast(spec, delta, N)) == \
                fields(cold(want, "harmonic", N)[1])
        assert [tuple(map(fields, p)) for p in order_diagnostics(
            spec, delta, (3, 60))] == [tuple(map(fields, cold(
                want, "harmonic", N))) for N in (3, 60)]


def test_table_shape_is_read_once_and_left_out_of_equality(monkeypatch):
    shaped, plain = tree_for(fibonacci_spec(), 30), \
        tree_for(fibonacci_spec(), 30)

    def diagnostics(table):
        out = []
        for name in ("exp", "harmonic"):
            delta = delta_from_name(name)
            out += [fields(lipschitz_estimate(table, delta)),
                    fields(continuity_witness(table, delta))]
            out += [tuple(map(fields, pair))
                    for pair in order_diagnostics(table, delta, (12, 30))]
        return out

    reads, cuts = [], []
    shape, skeleton = words._shape, words._skeleton

    def cut(*a):
        cuts.append(a[1])
        return skeleton(*a)

    # the table's forks call words' _shape (on its 31 leaves) and its
    # skeleton words' _skeleton; a shallower cut of the order diagnostics
    # calls the _skeleton that tree imported
    monkeypatch.setattr(words, "_shape",
                        lambda *a: reads.append(len(a[0])) or shape(*a))
    monkeypatch.setattr(words, "_skeleton", cut)
    monkeypatch.setattr(tree_module, "_skeleton", cut)
    got = diagnostics(shaped)
    assert reads == [31] and cuts == [30, 12, 12]
    views = {"forks", "skeleton"}
    assert views <= set(vars(shaped)) and not views & set(vars(plain))
    assert shaped == plain and hash(shaped) == hash(plain)
    assert repr(shaped) == repr(plain)
    assert got == diagnostics(plain)


def test_one_shape_per_table_serves_profiles_and_diagnostics(monkeypatch):
    reads = []
    shape = words._shape
    monkeypatch.setattr(words, "_shape",
                        lambda *a: reads.append(len(a[0])) or shape(*a))
    spec = Substitution.from_rules({"a": "ab", "b": "ba"}, "a")
    table = language_table(spec, 24)
    n = len(table.sorted_leaves)
    profiles = [level_profile(table) for _ in range(4)]
    pairs = order_diagnostics(table, delta_from_name("harmonic"), (6, 24))
    assert reads == [n]
    want = level_profile(spec, 24)
    assert reads == [n, n]
    assert profiles == [want] * 4
    # the profile reads the stored leaves, not the word levels
    bare = dataclasses.replace(table)
    with monkeypatch.context() as patch:
        patch.setattr(words, "_tree_of_words", refuse_levels)
        assert level_profile(bare) == want and reads == [n, n, n]
    from_spec = order_diagnostics(spec, delta_from_name("harmonic"), (6, 24))
    assert [tuple(map(fields, p)) for p in pairs] == \
        [tuple(map(fields, p)) for p in from_spec]


@pytest.mark.parametrize("spec, N", ((FullShift(2), 6), (FIB, 40),
                                     (ExplicitWindow("abaababaab"), 7),
                                     (ExplicitWindow("ab"), 3)))
def test_stored_leaves_and_shape_leave_equality_alone(spec, N):
    table = language_table(spec, N)
    assert table.sorted_leaves == sorted([*table.leaves(), *(
        v for v, cs in children_of(table).items() if not cs)])
    level_profile(table)
    views = {"counts", "forks", "levels"}
    assert views <= set(vars(table))
    # language_table reads the level counts of a table with no closed
    # form, which the letter cap sums; a table made afresh has no view
    other = language_table(spec, N)
    assert "levels" not in vars(other)
    other = dataclasses.replace(other)
    assert not views & set(vars(other))
    assert table == other and hash(table) == hash(other)
    assert repr(table) == repr(other) == (
        "LanguageTable(depth=%r, sorted_leaves=%r, stabilized=%r)"
        % (N, table.sorted_leaves, table.stabilized))
    # the leaves fix every word: other leaves make another table
    emptied = dataclasses.replace(other, sorted_leaves=[])
    assert emptied != table and emptied.levels != table.levels
