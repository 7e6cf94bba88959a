import math
import os
import random
import resource
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ultratree.words import (ExplicitWindow, FullShift, InsufficientDataError,
                             OutOfDepthError, SturmianCF, Substitution,
                             UnknownSymbolError, alphabet, border_array,
                             complexity_profile, fibonacci_spec,
                             language_table, repetitivity_estimate,
                             repulsiveness_estimates, right_special_words,
                             substitution_apply, substitution_fixed_point,
                             sturmian_characteristic, level_profile,
                             LevelProfile, TABLE_LETTER_CAP, table_letters,
                             _leaves, _recurrent_prefix, _tree_of_words,
                             _window_for)
from ultratree import words
from ultratree.tree import StructuralError, build_tree

from oracles import (children_of, counts_by_levels, repetitivity_by_levels,
                     repulsiveness_bruteforce, repulsiveness_by_border_memo,
                     right_special_by_levels)


def test_alphabet():
    assert alphabet(3) == "abc"
    with pytest.raises(ValueError):
        alphabet(0)
    with pytest.raises(ValueError):
        alphabet(27)


def test_full_shift_counts():
    table = language_table(FullShift(2), 5)
    assert table.counts == (1, 2, 4, 8, 16, 32)
    assert all(table.stabilized)
    table3 = language_table(FullShift(3), 3)
    assert table3.counts == (1, 3, 9, 27)


def test_full_shift_size_guard():
    # k^N words past the cap are refused before any is enumerated
    for k, N in ((2, 21), (2, 800), (4, 11), (26, 5)):
        with pytest.raises(ValueError, match="more than 1048576 words"):
            language_table(FullShift(k), N)
    # one letter passes no word cap; its table is refused at the 2^30
    # letters of every table, N(N + 1) / 2 of them, from depth 46,341
    with pytest.raises(ValueError, match="table of 5000050000 letters "
                                         "exceeds the limit of 1073741824"):
        language_table(FullShift(1), 100000)
    assert language_table(FullShift(1), 200).counts == (1,) * 201
    assert language_table(FullShift(1), 11586).counts == (1,) * 11587


def test_explicit_window_factors():
    table = language_table(ExplicitWindow("abab"), 4)
    assert table.levels[1] == ("a", "b")
    assert table.levels[2] == ("ab", "ba")
    assert table.levels[3] == ("aba", "bab")
    assert table.levels[4] == ("abab",)


def test_spec_validation():
    with pytest.raises(ValueError):
        FullShift(0)
    with pytest.raises(ValueError):
        ExplicitWindow("")
    with pytest.raises(ValueError):
        Substitution.from_rules({"a": "ba", "b": "a"}, "a")
    with pytest.raises(ValueError):
        Substitution.from_rules({"a": ""}, "a")
    with pytest.raises(ValueError):
        SturmianCF(mu=(1, 0))
    with pytest.raises(ValueError):
        SturmianCF(mu=(), tail=("cubic",))
    # a constant tail of 0 gives mu_i = 0 for every i >= 1: no
    # characteristic word grows past a fixed length
    with pytest.raises(ValueError, match="below 1"):
        SturmianCF((), ("constant", 0))


def test_sturmian_characteristic_nesting():
    fib = fibonacci_spec()
    words = [sturmian_characteristic(fib, n) for n in (2, 5, 12, 30)]
    for shorter, longer in zip(words, words[1:]):
        assert longer.endswith(shorter)


def characteristic_from_whole_images(spec, min_len):
    """The first R_k of length at least min_len, built from images held
    whole: the oracle for the last letters that sturmian_characteristic
    keeps."""
    a_img, b_img = "a", "b"
    i = 0
    while True:
        m = spec.coefficient(i)
        if i % 2 == 0:
            b_img = b_img + a_img * m
            if len(b_img) >= min_len:
                return b_img
        else:
            a_img = a_img + b_img * m
        i += 1


@pytest.mark.parametrize("spec", (
    fibonacci_spec(), SturmianCF((1,), ("pow2",)),
    SturmianCF((1,), ("linear",)), SturmianCF((0, 3), ("pow2",)),
    SturmianCF((1, 1, 9, 1), ("pow2",)), SturmianCF((7, 2), ("constant", 3))))
def test_characteristic_suffix_equals_whole_images(spec):
    for length in (1, 2, 3, 5, 8, 13, 64, 100, 127, 1000, 4097, 20000):
        want = characteristic_from_whole_images(spec, length)[-length:]
        assert sturmian_characteristic(spec, length) == want


def test_pow2_characteristic_at_six_million_runs_in_512_mb():
    # the first R_k that long has 196,328,807,846 letters; the images are
    # held as their last letters only.  A child under RLIMIT_AS, since
    # whole images would exhaust the memory of the test run
    code = ("from ultratree.words import SturmianCF, sturmian_characteristic"
            " as c\nspec = SturmianCF((1,), ('pow2',))\n"
            "word = c(spec, 6000000)\n"
            "assert len(word) == 6000000 and word.endswith(c(spec, 20000))")
    limit = 2 ** 29

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            preexec_fn=cap, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode()[-500:]


def test_sturmian_cf_coefficients():
    lin = SturmianCF((), ("linear",))
    assert [lin.coefficient(i) for i in range(4)] == [0, 1, 2, 3]
    pw = SturmianCF((), ("pow2",))
    assert pw.coefficient(5) == 32
    finite = SturmianCF((1, 1))
    with pytest.raises(InsufficientDataError):
        finite.coefficient(2)


def test_fibonacci_language_is_sturmian():
    table = language_table(fibonacci_spec(), 32)
    P, g = complexity_profile(table)
    assert P == tuple(n + 1 for n in range(33))
    assert all(x == 1 for x in g)
    for n in range(1, 32):
        assert len(right_special_words(table, n)) == 1


def test_sturmian_window_is_doubled_until_every_word_is_in():
    # windows of 136, 272 and 544 letters agree on 32 words of length 34,
    # where every Sturmian language has 35; one of 1088 letters holds them
    table = language_table(SturmianCF((1, 1, 9, 1), ("pow2",)), 34)
    assert table.counts == tuple(range(1, 36)) and all(table.stabilized)


def test_substitution_fixed_point():
    tm = Substitution.from_rules({"a": "ab", "b": "ba"}, "a")
    w = substitution_fixed_point(tm, 8)
    assert w.startswith("abbabaab")
    with pytest.raises(UnknownSymbolError):
        substitution_apply({"a": "ab"}, "ax")


def test_substitution_language_table():
    tm = Substitution.from_rules({"a": "ab", "b": "ba"}, "a")
    table = language_table(tm, 6)
    # Thue-Morse complexity: P(1..6) = 2, 4, 6, 10, 12, 16
    assert table.counts[1:] == (2, 4, 6, 10, 12, 16)


def test_border_array():
    assert border_array("abaab") == [0, 0, 0, 1, 1, 2]
    assert border_array("aaaa") == [0, 0, 1, 2, 3]
    assert border_array("") == [0]


def test_right_special_out_of_depth():
    table = language_table(FullShift(2), 3)
    with pytest.raises(OutOfDepthError):
        right_special_words(table, 3)


def test_repulsiveness_full_shift():
    table = language_table(FullShift(2), 8)
    l_hat, l_hat_r, wit = repulsiveness_estimates(table)
    assert l_hat == 1.0 / 7.0
    assert l_hat <= l_hat_r
    bl, bp = repulsiveness_bruteforce(table)
    assert bl == l_hat


def test_repulsiveness_fibonacci():
    table = language_table(fibonacci_spec(), 12)
    l_hat, l_hat_r, wit = repulsiveness_estimates(table)
    assert l_hat == 0.5
    assert l_hat_r == pytest.approx(5.0 / 6.0)
    assert wit["l_hat"] is not None and wit["l_hat_R"] is not None
    w, W = wit["l_hat"]
    assert W.startswith(w) and W.endswith(w)
    assert repulsiveness_bruteforce(table)[0] == l_hat
    assert repulsiveness_bruteforce(table, right_special_only=True)[0] \
        == l_hat_r


def test_repulsiveness_ordering_everywhere():
    for spec in (FullShift(2), FullShift(3), fibonacci_spec(),
                 ExplicitWindow("abaababa")):
        table = language_table(spec, 8)
        l_hat, l_hat_r, _ = repulsiveness_estimates(table)
        assert l_hat <= l_hat_r


def test_repetitivity():
    table = language_table(fibonacci_spec(), 12)
    assert repetitivity_estimate(table, 1) == 3
    full = language_table(FullShift(2), 8)
    assert repetitivity_estimate(full, 1) is None
    window = language_table(ExplicitWindow("aaaa"), 4)
    assert repetitivity_estimate(window, 1) == 1
    with pytest.raises(OutOfDepthError):
        repetitivity_estimate(table, 13)


def test_negative_lengths_are_refused():
    # a negative length would index the levels from the end, or slice the
    # leaves from it
    table = language_table(fibonacci_spec(), 8)
    for n in (-1, -3):
        with pytest.raises(OutOfDepthError, match="need length %d >= 0" % n):
            right_special_words(table, n)
        with pytest.raises(OutOfDepthError, match="need length %d >= 0" % n):
            repetitivity_estimate(table, n)


def test_language_table_rejects_bad_depth():
    with pytest.raises(ValueError):
        language_table(FullShift(2), 0)


def test_single_letter_shift():
    table = language_table(FullShift(1), 4)
    assert table.counts == (1, 1, 1, 1, 1)


# ---------------------------------------------------------------------------
# the table enumeration and the repulsiveness memo against their oracles


def windows(max_letters, max_len):
    return st.integers(1, max_letters).flatmap(
        lambda k: st.text(alphabet=alphabet(k), min_size=1,
                          max_size=max_len))


@settings(max_examples=300, deadline=None)
@given(windows(4, 60), st.integers(1, 70))
def test_explicit_window_levels_are_sorted_factor_sets(w, N):
    table = language_table(ExplicitWindow(w), N)
    for n in range(N + 1):
        expected = sorted({w[i:i + n] for i in range(len(w) - n + 1)})
        assert list(table.levels[n]) == expected


def prefix_levels(prefix, N):
    """The levels a recurrent prefix's length-N factors build."""
    leaves = sorted({prefix[i:i + N] for i in range(len(prefix) - N + 1)})
    return _tree_of_words(leaves or [""], N)


def pruned_factor_levels(w, N):
    """The greatest right-extendable, factor-closed subset of the window's
    factors of length <= N, by fixed point: the oracle for the cut."""
    kept = [{w[i:i + n] for i in range(len(w) - n + 1)} for n in range(N + 1)]
    changed = True
    while changed:
        changed = False
        for n in range(N - 1, 0, -1):
            alive = kept[n] & {c[:-1] for c in kept[n + 1]}
            changed |= alive != kept[n]
            kept[n] = alive
        for n in range(2, N + 1):
            alive = {u for u in kept[n]
                     if u[:-1] in kept[n - 1] and u[1:] in kept[n - 1]}
            changed |= alive != kept[n]
            kept[n] = alive
    return tuple(tuple(sorted(lv)) for lv in kept)


@settings(max_examples=300, deadline=None)
@given(windows(3, 60), st.integers(1, 70))
def test_recurrent_prefix_cuts_to_the_pruned_factors(w, N):
    assert prefix_levels(_recurrent_prefix(w, N), N) == \
        pruned_factor_levels(w, N)


SMALL_SUBSTITUTIONS = (
    {"a": "ab", "b": "ba"},              # Thue-Morse
    {"a": "ab", "b": "a"},               # Fibonacci
    {"a": "ab", "b": "aa"},              # period doubling
    {"a": "ab", "b": "ac", "c": "a"},    # Tribonacci
    {"a": "aab", "b": "ba"},
    {"a": "abc", "b": "bc", "c": "ca"},
)


def small_tables():
    full = st.sampled_from(((1, 12), (2, 8), (3, 5))).flatmap(
        lambda kd: st.integers(1, kd[1]).map(
            lambda N: language_table(FullShift(kd[0]), N)))
    window = st.tuples(windows(3, 40), st.integers(1, 12)).map(
        lambda wN: language_table(ExplicitWindow(wN[0]), wN[1]))
    subst = st.tuples(st.sampled_from(SMALL_SUBSTITUTIONS),
                      st.integers(1, 12)).map(
        lambda rN: language_table(Substitution.from_rules(rN[0], "a"),
                                  rN[1]))
    return st.one_of(full, window, subst)


def sturmian_specs():
    """Sturmian specs with coefficients up to 9 and every tail rule."""
    head = st.tuples(st.integers(0, 9), st.lists(st.integers(1, 9),
                                                 max_size=4))
    tail = st.one_of(st.integers(1, 9).map(lambda c: ("constant", c)),
                     st.sampled_from((("linear",), ("pow2",))))
    return st.builds(lambda h, t: SturmianCF((h[0], *h[1]), t), head, tail)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(windows(3, 60), st.integers(1, 70)).map(
        lambda wN: (ExplicitWindow(wN[0]), wN[1])),
    st.tuples(st.sampled_from(SMALL_SUBSTITUTIONS), st.integers(1, 30)).map(
        lambda rN: (Substitution.from_rules(rN[0], "a"), rN[1])),
    st.tuples(sturmian_specs(), st.integers(1, 40)),
    st.sampled_from(((1, 12), (2, 8), (3, 5))).flatmap(
        lambda kd: st.tuples(st.just(FullShift(kd[0])),
                             st.integers(1, kd[1])))))
def test_table_letters_count_the_table(spec_and_depth):
    spec, N = spec_and_depth
    table = language_table(spec, N)
    letters = sum(len(w) for lv in table.levels for w in lv)
    # from the table's level counts, and in closed form or from a table on
    # the spec's leaves
    assert table_letters(table) == letters
    assert table_letters(spec, N) == letters


def test_table_letter_cap(monkeypatch):
    def refuse(*args):
        raise AssertionError("read past the refusal")

    # sturmian:cf=1 passes the cap at depth 1476, counted in closed form
    # before its leaves are read; a window's table is counted from the
    # level counts of its leaves, and no levels are built
    assert table_letters(fibonacci_spec(), 1475) <= TABLE_LETTER_CAP
    monkeypatch.setattr(words, "_tree_of_words", refuse)
    with monkeypatch.context() as patch:
        patch.setattr(words, "_leaves", refuse)
        with pytest.raises(ValueError, match="table of 1074038952 letters "
                                             "exceeds the limit of 1073741824"):
            language_table(fibonacci_spec(), 1476)
    rng = random.Random(7)
    window = "".join(rng.choice("ab") for _ in range(3000))
    with pytest.raises(ValueError, match="table of 2252063262 letters"):
        language_table(ExplicitWindow(window), 1500)


@settings(max_examples=300, deadline=None)
@given(small_tables(), st.data())
def test_repulsiveness_matches_bruteforce(table, data):
    n = data.draw(st.sampled_from(
        [None] + list(range(1, table.depth))), label="n")
    l_hat, l_hat_r, witnesses = repulsiveness_estimates(table, n)
    assert (l_hat, witnesses["l_hat"]) == repulsiveness_bruteforce(table, n)
    assert (l_hat_r, witnesses["l_hat_R"]) == repulsiveness_bruteforce(
        table, n, right_special_only=True)


@settings(max_examples=300, deadline=None)
@given(small_tables())
def test_child_links_match_level_scans(table):
    # a branching word carries its children, each with the range of its
    # leaves in the sorted leaves; no other word is kept
    profile = level_profile(table)
    forks = table.forks
    leaves = table.sorted_leaves
    every = {}
    for n in range(table.depth):
        counts = {}
        for v in table.levels[n]:
            kids = tuple(w for w in table.levels[n + 1] if w[:-1] == v)
            if len(kids) >= 2:
                bounds = forks[v]
                assert tuple(leaves[lo][:n + 1] for lo in bounds[:-1]) == kids
                for c, lo, hi in zip(kids, bounds, bounds[1:]):
                    assert leaves[lo:hi] == [
                        u for u in leaves if u.startswith(c)]
            counts[v] = len(kids)
        assert right_special_words(table, n) == {
            v for v, c in counts.items() if c >= 2}
        assert profile.edge_weight[n] == sum(
            c * (c - 1) for c in counts.values())
        assert profile.branching[n] == sum(
            1 for c in counts.values() if c >= 2)
        every.update(counts)
    assert list(forks) == sorted(v for v, c in every.items() if c >= 2)
    assert len(every) == sum(table.counts[:table.depth])
    if all(every.values()):
        assert build_tree(table) is table
    else:
        with pytest.raises(StructuralError):
            build_tree(table)


# ---------------------------------------------------------------------------
# the lang statistics from the sorted leaves against the level scans


def lang_statistics(table, N=None):
    """What lang reads of a table: P and g, each right special set, the
    repulsiveness estimates with their witnesses up to N, and repetitivity
    for n <= 4."""
    depth = table.depth
    return (complexity_profile(table),
            [right_special_words(table, n) for n in range(depth)],
            repulsiveness_estimates(table, N),
            [repetitivity_estimate(table, n)
             for n in range(min(4, depth) + 1)])


def lang_statistics_by_levels(table, N=None):
    depth, P = table.depth, counts_by_levels(table)
    return ((P, tuple(P[n + 1] - P[n] for n in range(depth))),
            [right_special_by_levels(table, n) for n in range(depth)],
            repulsiveness_by_border_memo(table, N),
            [repetitivity_by_levels(table, n)
             for n in range(min(4, depth) + 1)])


@settings(max_examples=300, deadline=None)
@given(st.one_of(windows(3, 60), st.sampled_from(
    ("ab ", "a\u03b2", "\xe9\U0001f600")).flatmap(
        lambda letters: st.text(alphabet=letters, min_size=1, max_size=40))),
    st.integers(1, 70), st.data())
def test_lang_statistics_match_level_scans_on_windows(w, depth, data):
    # short windows leave short leaves, and few letters tie ratios; the
    # neighbour LCPs read any text, a space and letters past Latin-1 too
    table = language_table(ExplicitWindow(w), depth)
    N = data.draw(st.sampled_from([None, *range(depth + 1)]), label="N")
    assert lang_statistics(table, N) == lang_statistics_by_levels(table, N)


@pytest.mark.parametrize("spec, depth", (
    (fibonacci_spec(), 256),
    (Substitution.from_rules({"a": "ab", "b": "ba"}, "a"), 128),
    (FullShift(2), 12),
    (FullShift(3), 6),
    (SturmianCF((1, 2), ("linear",)), 100),
    (Substitution.from_rules({"a": "abc", "b": "bc", "c": "a"}, "a"), 40),
    (Substitution.from_rules({"a": "aab", "b": "b"}, "a"), 12),
), ids=("fib", "tm", "full2", "full3", "cf-linear", "abc", "aab"))
def test_lang_statistics_match_level_scans(spec, depth):
    table = language_table(spec, depth)
    assert lang_statistics(table) == lang_statistics_by_levels(table)


def test_deep_sturmian_lang_statistics_hold_no_word_levels():
    # the levels of sturmian:cf=1 at depth 1024 hold 3.6e8 letters; the
    # statistics read the 1025 leaves of 1024 letters, about 1 MB, with
    # their neighbour LCPs and the 1024 branching words
    table = language_table(fibonacci_spec(), 1024)
    tracemalloc.start()
    try:
        level_profile(table)
        P, _ = complexity_profile(table)
        l_hat, l_hat_r, _ = repulsiveness_estimates(table)
        rep = [repetitivity_estimate(table, n) for n in range(1, 5)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P == tuple(range(1, 1026)) and l_hat <= l_hat_r
    assert rep[0] == 3
    assert peak < 8 * 2 ** 20, peak


# ---------------------------------------------------------------------------
# the shape of a tree read from its sorted leaves


def profile_by_walk(table):
    """The level profile from a walk over the levels and child links: the
    oracle for the leaf reader."""
    P, g = complexity_profile(table)
    children = children_of(table)
    edge, branching = [], []
    for n in range(table.depth):
        counts = [len(children[v]) for v in table.levels[n]]
        edge.append(sum(c * (c - 1) for c in counts))
        branching.append(sum(1 for c in counts if c > 1))
    return LevelProfile(table.depth, P, g, tuple(edge), tuple(branching))


def leaf_specs():
    """Specs and depths: full shifts, explicit windows over 1-4 letters,
    plain or doubled, and the substitutions of the order schedule
    property."""
    full = st.sampled_from(((1, 12), (2, 8), (3, 5))).flatmap(
        lambda kd: st.tuples(st.just(FullShift(kd[0])),
                             st.integers(1, kd[1])))
    window = st.tuples(windows(4, 30), st.booleans(), st.integers(1, 12)).map(
        lambda t: (ExplicitWindow(t[0] * (2 if t[1] else 1)), t[2]))
    subst = st.tuples(st.sampled_from((
        {"a": "ab", "b": "ba"},
        {"a": "ab", "b": "a"},
        {"a": "abc", "b": "bc", "c": "a"},
        {"a": "aab", "b": "b"},
        {"a": "ab", "b": "ac", "c": "a"})), st.integers(1, 12)).map(
        lambda rN: (Substitution.from_rules(rN[0], "a"), rN[1]))
    return st.one_of(full, window, subst)


@settings(max_examples=300, deadline=None)
@given(leaf_specs())
def test_level_profile_reads_the_sorted_leaves(spec_depth):
    spec, N = spec_depth
    table = language_table(spec, N)
    want = profile_by_walk(table)
    assert level_profile(table) == want
    assert level_profile(spec, N) == want
    if isinstance(spec, ExplicitWindow):
        # the depth-N words and the words with no child, from the window's
        # factor sets alone
        w = spec.window
        factors = [{w[i:i + n] for i in range(len(w) - n + 1)}
                   for n in range(N + 1)]
        childless = set().union(*(factors[n] - {u[:-1] for u in factors[n + 1]}
                                  for n in range(N)))
        assert set(table.leaves()) == factors[N]
        assert _leaves(spec, N) == (sorted(factors[N] | childless),
                                    table.stabilized)


# ---------------------------------------------------------------------------
# window-generated tables are built once


WINDOW_SPECS = (
    fibonacci_spec(),
    SturmianCF((2,), ("constant", 2)),
    SturmianCF((1, 2), ("linear",)),
    SturmianCF((0, 3), ("pow2",)),
    Substitution.from_rules({"a": "ab", "b": "ba"}, "a"),
    Substitution.from_rules({"a": "ab", "b": "aa"}, "a"),
    Substitution.from_rules({"a": "ab", "b": "ac", "c": "a"}, "a"),
    Substitution.from_rules({"a": "abc", "b": "bc", "c": "a"}, "a"),
    # b^k first shows near position 2^(k+1): deep tables reach the cap
    Substitution.from_rules({"a": "aab", "b": "b"}, "a"),
)


def doubling_loop(spec, N):
    """The table of every doubled window: the oracle for language_table's
    one build.  A Sturmian window is certified once it holds the N + 1
    words of length N, at the cap as below it; a substitution window's
    counts are compared with the last window's.  Returns the last levels
    and the flags."""
    length = max(4 * N, 64)
    prev_counts = None
    flags = [False] * (N + 1)
    while True:
        window = _window_for(spec, length)
        levels = prefix_levels(_recurrent_prefix(window, N), N)
        counts = tuple(len(lv) for lv in levels)
        if isinstance(spec, SturmianCF):
            if counts[N] == N + 1:
                flags = [True] * (N + 1)
                break
        elif prev_counts is not None:
            flags = [counts[n] == prev_counts[n] for n in range(N + 1)]
            if all(flags):
                break
        prev_counts = counts
        if 2 * length > words.DEFAULT_WINDOW_CAP:
            break
        length *= 2
    return levels, tuple(flags)


# the flag patterns each cap produces over the specs and depths below: a
# small cap stops the doubling of a=aab,b=b with some lengths unsettled, and
# a cap below the first window stops a substitution's doubling before any
# comparison; a Sturmian window is certified by its N + 1 words alone, so
# it is stable or refused at any cap
@pytest.mark.parametrize("cap, patterns", (
    (2 ** 7, {"stable", "partial", "unsettled"}),
    (2 ** 12, {"stable", "partial"}),
    (words.DEFAULT_WINDOW_CAP, {"stable"}),
))
def test_window_tables_match_the_doubling_loop(monkeypatch, cap, patterns):
    monkeypatch.setattr(words, "DEFAULT_WINDOW_CAP", cap)
    seen, refused = set(), set()
    for spec in WINDOW_SPECS:
        for N in (1, 2, 3, 5, 8, 13, 30, 64, 100):
            if cap > 2 ** 12 and spec == WINDOW_SPECS[-1] and N > 13:
                continue  # the oracle doubles to 2^20 letters, seconds each
            levels, flags = doubling_loop(spec, N)
            if len(levels[N]) < N + 1 and isinstance(spec, SturmianCF):
                # the last window below the cap is short of the N + 1 words
                # of length N that a Sturmian language has: refused
                refused.add((spec, N, len(levels[N])))
                with pytest.raises(ValueError, match="holds %d of the %d "
                                   "words" % (len(levels[N]), N + 1)):
                    language_table(spec, N)
                continue
            table = language_table(spec, N)
            assert table.levels == levels, (spec, N)
            assert table.stabilized == flags, (spec, N)
            seen.add("stable" if all(flags) else
                     "partial" if any(flags) else "unsettled")
    assert seen == patterns
    assert refused == ({(SturmianCF((0, 3), ("pow2",)), 30, 17)}
                       if cap == 2 ** 7 else set())


def test_sturmian_window_at_the_cap_is_certified(monkeypatch):
    # the first window of Fibonacci at depth 30, 120 letters, is past half
    # the cap and holds all 31 words of length 30: every level is settled
    monkeypatch.setattr(words, "DEFAULT_WINDOW_CAP", 2 ** 7)
    table = language_table(fibonacci_spec(), 30)
    assert len(table.sorted_leaves) == 31
    assert table.stabilized == (True,) * 31


def test_window_table_is_built_once(monkeypatch):
    calls = []

    def counted(leaves, N):
        calls.append(N)
        return _tree_of_words(leaves, N)

    # the levels are built from the leaves on their first read, once
    monkeypatch.setattr(words, "_tree_of_words", counted)
    for spec in WINDOW_SPECS + (FullShift(2), ExplicitWindow("abaab")):
        calls.clear()
        table = language_table(spec, 13)
        assert calls == [], spec
        assert table.levels is table.levels and calls == [13], spec
    # also when the doubling stops at the cap
    monkeypatch.setattr(words, "DEFAULT_WINDOW_CAP", 2 ** 12)
    calls.clear()
    table = language_table(WINDOW_SPECS[-1], 30)
    assert table.levels is table.levels
    assert calls == [30] and not all(table.stabilized)


def test_full_shift_profile_is_exact():
    for k in (1, 2, 3):
        profile = level_profile(FullShift(k), 300)
        P = tuple(k ** n for n in range(301))
        assert profile.P == P
        assert profile.g == tuple(P[n + 1] - P[n] for n in range(300))
        assert profile.edge_weight == tuple(p * (k - 1) * k for p in P[:300])
        assert profile.branching == (P[:300] if k > 1 else (0,) * 300)
