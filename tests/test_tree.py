import random
import tracemalloc

import pytest

from ultratree import tree as tree_module, words
from ultratree.words import (ExplicitWindow, FullShift, Substitution,
                             fibonacci_spec, language_table)
from ultratree.tree import (DeltaSequence, StructuralError,
                            approximation_graph, build_tree, choice_function,
                            lipschitz_estimate, order_diagnostics)
from ultratree.metrics import graph_distances

from oracles import (children_of, horizontal_edges, tree_for,
                     walk_tree_check)


def representative(tree, tau, v):
    """The leaf that tau's selections lead to from the word v, walked over
    every node: the oracle."""
    children = children_of(tree)
    while len(v) < tree.depth:
        cs = children[v]
        v = tau[v] if len(cs) > 1 else cs[0]
    return v


def test_full_shift_tree_shape():
    tree = tree_for(FullShift(2), 3)
    assert [len(lv) for lv in tree.levels] == [1, 2, 4, 8]
    forks = tree.forks
    assert forks[""] == [0, 4, 8] and forks["ab"] == [2, 3, 4]
    assert tree.leaves() == tree.levels[3]


def test_fibonacci_tree_single_branching_per_level():
    tree = tree_for(fibonacci_spec(), 8)
    for n in range(8):
        branching = [v for v in tree.levels[n] if v in tree.forks]
        assert len(branching) == 1


def test_structural_errors():
    # "a" ends the window "ba", and "b" ends "aab": neither extends
    table = language_table(ExplicitWindow("ba"), 2)
    assert table.levels == (("",), ("a", "b"), ("ba",))
    with pytest.raises(StructuralError, match="'a' at length 1"):
        build_tree(table)
    table = language_table(ExplicitWindow("aab"), 2)
    assert table.levels == (("",), ("a", "b"), ("aa", "ab"))
    with pytest.raises(StructuralError, match="'b' at length 1"):
        build_tree(table)


def outcome(call):
    """A call's result, or the message of the StructuralError it raised."""
    try:
        return call()
    except StructuralError as exc:
        return str(exc)


def check_against_the_walk(spec, N):
    """build_tree and order_diagnostics on the table and on the spec end as
    the node walk does: the same refusal, or the table and equal
    diagnostics.  True when the walk refused."""
    table = language_table(spec, N)
    want = outcome(lambda: walk_tree_check(table))
    delta = DeltaSequence.harmonic()
    got = [outcome(lambda: build_tree(table)),
           outcome(lambda: order_diagnostics(table, delta, (N,))),
           outcome(lambda: order_diagnostics(spec, delta, (N,)))]
    if want is table:
        assert got[0] is table
        assert repr(got[1]) == repr(got[2])
        return False
    assert isinstance(want, str) and got == [want] * 3
    return True


def test_one_tree_check_matches_the_node_walk(monkeypatch):
    rng = random.Random(11)
    refused = 0
    for _ in range(600):
        letters = rng.choice(("ab", "ab", "abc"))
        w = "".join(rng.choice(letters) for _ in range(rng.randint(1, 60)))
        refused += check_against_the_walk(ExplicitWindow(w),
                                          rng.randint(1, len(w) // 4 + 2))
    assert 100 < refused < 500
    # a tree of words whose only leaf is the root: the root has no child

    def root_only(spec, N):
        return [""], (True,) * (N + 1)

    monkeypatch.setattr(words, "_leaves", root_only)
    monkeypatch.setattr(tree_module, "_leaves", root_only)
    for N in (1, 2, 7):
        assert check_against_the_walk(ExplicitWindow("ab"), N)
    with pytest.raises(StructuralError, match="^word '' at length 0 has no "
                       "extension$"):
        build_tree(language_table(ExplicitWindow("ab"), 3))


def test_every_path_refuses_a_table_that_is_not_a_tree():
    delta = DeltaSequence.harmonic()
    # "b" ends the window, so no push may run on the table
    table = language_table(ExplicitWindow("ab"), 3)
    with pytest.raises(StructuralError,
                       match="^word 'b' at length 1 has no extension$"):
        lipschitz_estimate(table, delta)
    # 16 of its leaves are shorter than 20, "abab" the shortest; every path
    # refuses the same word
    rng = random.Random(7)
    spec = ExplicitWindow("".join(rng.choice("ab") for _ in range(60)))
    table = language_table(spec, 20)
    for call in (lambda: build_tree(table),
                 lambda: lipschitz_estimate(table, delta),
                 lambda: order_diagnostics(table, delta, (5, 20)),
                 lambda: order_diagnostics(spec, delta, (5, 20))):
        with pytest.raises(StructuralError, match="^word 'abab' at length 4 "
                           "has no extension$"):
            call()


def test_horizontal_edges():
    tree = tree_for(FullShift(2), 3)
    assert horizontal_edges(tree, 1) == [("a", "b")]
    assert len(horizontal_edges(tree, 3)) == 4
    tree3 = tree_for(FullShift(3), 2)
    assert len(horizontal_edges(tree3, 2)) == 3 * 3
    with pytest.raises(ValueError):
        horizontal_edges(tree, 0)


def test_canonical_choice():
    tree = tree_for(FullShift(2), 4)
    tau = choice_function(tree)
    assert tau[""] == "a"
    assert representative(tree, tau, "") == "aaaa"
    assert representative(tree, tau, "b") == "baaa"
    # the root edge joins the representatives of its two children
    delta = DeltaSequence.exponential()
    graph = approximation_graph(tree, tau, delta)
    assert graph.edges[graph.index["aaaa"], graph.index["baaa"]] == delta[0]


@pytest.mark.parametrize("spec, N", (
    (FullShift(2), 4), (FullShift(3), 3), (fibonacci_spec(), 9),
    (ExplicitWindow("abaababaab" * 2), 6),
    (Substitution.from_rules({"a": "ab", "b": "ba"}, "a"), 10)))
def test_choice_functions_select_at_branching_words_only(spec, N):
    tree = tree_for(spec, N)
    children = children_of(tree)
    branching = {v for v, cs in children.items() if len(cs) > 1}
    canonical = choice_function(tree)
    seeded = choice_function(tree, policy="seeded-random", seed=N)
    assert set(canonical) == set(seeded) == branching
    for v in branching:
        assert canonical[v] == min(children[v])
        assert seeded[v] in children[v]


def test_thue_morse_choice_function_and_graph_at_512_in_a_few_mb():
    # 414,297 nodes, of which 1,533 branch: a selection and a
    # representative per node peaked at 37 MB for the choice function alone
    tree = tree_for(Substitution.from_rules({"a": "ab", "b": "ba"}, "a"),
                    512)
    tree.forks  # read once per table, before any choice function
    tracemalloc.start()
    try:
        tau = choice_function(tree, policy="seeded-random", seed=17)
        graph = approximation_graph(tree, tau, DeltaSequence.harmonic())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert len(tau) == 1533 and len(graph.vertices) == 1534


def test_seeded_choice_deterministic():
    tree = tree_for(FullShift(2), 5)
    t1 = choice_function(tree, policy="seeded-random", seed=11)
    t2 = choice_function(tree, policy="seeded-random", seed=11)
    t3 = choice_function(tree, policy="seeded-random", seed=12)
    assert t1 == t2
    assert t1 != t3


def test_choice_functions_compare_by_selection():
    tree = tree_for(FullShift(2), 3)
    canonical = choice_function(tree)
    seeded = choice_function(tree, policy="seeded-random", seed=3)
    again = choice_function(tree, policy="seeded-random", seed=3)
    assert canonical != seeded
    assert seeded == again and seeded is not again


def test_unknown_policy():
    tree = tree_for(FullShift(2), 2)
    with pytest.raises(ValueError):
        choice_function(tree, policy="alphabetical")


def test_approximation_graph_depth1():
    tree = tree_for(FullShift(2), 1)
    tau = choice_function(tree)
    delta = DeltaSequence.exponential()
    graph = approximation_graph(tree, tau, delta)
    assert graph.vertices == ("a", "b")
    assert graph.edges == {(0, 1): delta[0]}


def test_approximation_graph_collapse_keeps_min_length():
    tree = tree_for(FullShift(2), 2)
    tau = choice_function(tree)
    delta = DeltaSequence.exponential()
    graph = approximation_graph(tree, tau, delta)
    # the root edge (a, b) collapses onto (aa, ba); the sibling edges at
    # level 2 connect aa-ab and ba-bb with the shorter length delta_1
    i = graph.index
    assert graph.edges[(i["aa"], i["ba"])] == delta[0]
    assert graph.edges[(i["aa"], i["ab"])] == delta[1]


def test_graph_connected_on_specs():
    delta = DeltaSequence.exponential()
    for spec in (FullShift(2), FullShift(3), fibonacci_spec(),
                 ExplicitWindow("abaababaab")):
        tree = build_tree(language_table(spec, 5))
        for policy, kw in (("canonical", {}),
                           ("seeded-random", {"seed": 3})):
            tau = choice_function(tree, policy=policy, **kw)
            graph = approximation_graph(tree, tau, delta)
            # raises UnreachableVertexError on a disconnected graph
            first = graph.vertices[0]
            graph_distances(graph, [(first, v) for v in graph.vertices])
