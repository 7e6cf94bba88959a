import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ultratree import words
from ultratree.words import (ExplicitWindow, FullShift, SturmianCF,
                             Substitution, _shape, alphabet, fibonacci_spec)
from ultratree.tree import DeltaSequence
from ultratree.laplacian import (InvalidMeasureError,
                                 InvariantViolationError, LaplacianMatrix,
                                 _assemble_bilinear, _fork_blocks, _frame,
                                 _sibling_pairs,
                                 assemble_laplacian,
                                 assemble_laplacian_dirichlet,
                                 assemble_pb_laplacian, check_invariants,
                                 cylinder_measure, density,
                                 dirichlet_form_value, matrix_difference,
                                 spectrum)

from oracles import (children_of, dense_spectrum, float_invariants_by_numpy,
                     leaf_range, masses_by_word, measure_by_levels, tree_for)

HARMONIC = DeltaSequence.harmonic()
UNIT = DeltaSequence.table([1.0])


def mild_weights(tree, seed):
    rng = random.Random(seed)
    out = {}
    for n in range(tree.depth):
        for v in tree.levels[n]:
            raw = [rng.randint(50, 100) for _ in children_of(tree)[v]]
            total = sum(raw)
            out[v] = [Fraction(r, total) for r in raw]
    return out


# ---------------------------------------------------------------------------
# measures


def test_uniform_measure_additivity():
    tree = tree_for(FullShift(2), 4)
    mu = masses_by_word(tree, cylinder_measure(tree), chain(*tree.levels))
    assert mu[""] == 1
    for n in range(4):
        for v in tree.levels[n]:
            assert mu[v] == sum(mu[c] for c in children_of(tree)[v])
    assert mu["abab"] == Fraction(1, 16)


def test_random_measure_additivity_and_determinism():
    # the root, each branching word's children and the leaves have masses;
    # a child's is the sum of its leaves'
    tree = tree_for(fibonacci_spec(), 6)
    leaves = tree.sorted_leaves
    mu1 = cylinder_measure(tree, weights="random", seed=3)
    mu2 = cylinder_measure(tree, weights="random", seed=3)
    assert mu1 == mu2
    # keyed by leaf range: the root's, each leaf's and each child's
    kids = [leaf_range(tree, c) for cs in children_of(tree).values()
            if len(cs) > 1 for c in cs]
    singles = [(i, i + 1) for i in range(len(leaves))]
    assert set(mu1) == {(0, len(leaves)), *singles, *kids}
    assert sum(mu1[x] for x in singles) == mu1[0, len(leaves)] == 1
    for lo, hi in kids:
        assert mu1[lo, hi] == sum(mu1[x] for x in singles[lo:hi]) > 0


def test_measure_validation():
    tree = tree_for(FullShift(2), 2)
    with pytest.raises(InvalidMeasureError):
        cylinder_measure(tree, weights={v: [Fraction(1, 3), Fraction(1, 3)]
                                        for v in ("", "a", "b")})
    with pytest.raises(InvalidMeasureError):
        cylinder_measure(tree, weights={v: [Fraction(1, 2)]
                                        for v in ("", "a", "b")})
    with pytest.raises(InvalidMeasureError):
        cylinder_measure(tree, weights={v: [Fraction(3, 2), Fraction(-1, 2)]
                                        for v in ("", "a", "b")})


def test_measure_weights_at_words_with_one_child():
    # Fibonacci at 3 branches at "", "a" and "ba"; "b", "aa" and "ab" have
    # one child each
    tree = tree_for(fibonacci_spec(), 3)
    assert list(tree.forks) == ["", "a", "ba"]
    forks = {"": [Fraction(1, 3), Fraction(2, 3)],
             "a": [Fraction(1, 4), Fraction(3, 4)],
             "ba": [Fraction(1, 5), Fraction(4, 5)]}
    mu = cylinder_measure(tree, weights=forks)
    want = measure_by_levels(tree, weights={**forks, "b": [1], "aa": [1],
                                            "ab": [1]})
    assert masses_by_word(tree, mu, want) == want
    # an entry for a word with one child must be the one weight 1; entries
    # at the leaves or outside the tree are not read
    assert cylinder_measure(tree, weights={
        **forks, "b": [Fraction(1)], "aab": [7], "bb": [5]}) == mu
    # a float weight there multiplies the mass of the word's leaf range in
    # place, which its one child "ba" shares, and so every mass below
    drift = cylinder_measure(tree, weights={**forks, "b": [1 + 1e-13]})
    assert drift[leaf_range(tree, "b")] == Fraction(2, 3) * (1 + 1e-13)
    assert leaf_range(tree, "b") == leaf_range(tree, "ba")
    assert drift[leaf_range(tree, "baa")] == \
        drift[leaf_range(tree, "b")] * forks["ba"][0]
    for entry, message in (([Fraction(1, 2)] * 2, "wrong arity"),
                           ([Fraction(1, 2)], "sum to"),
                           ([-1], "non-positive")):
        with pytest.raises(InvalidMeasureError, match=message):
            cylinder_measure(tree, weights={**forks, "aa": entry})
    # a branching word without weights is refused; the first word at fault
    # in level order is the one reported
    with pytest.raises(InvalidMeasureError, match="no weights for 'a'"):
        cylinder_measure(tree, weights={"": forks[""], "ba": forks["ba"],
                                        "aa": [2]})
    with pytest.raises(InvalidMeasureError, match="at 'b'"):
        cylinder_measure(tree, weights={"": forks[""], "a": forks["a"],
                                        "b": [2]})


def test_measure_tree_mismatch():
    # a missing mass is named by its word: a leaf, or a branching word's
    # child
    tree = tree_for(FullShift(2), 2)
    for word in ("ab", "a"):
        mu = cylinder_measure(tree)
        del mu[leaf_range(tree, word)]
        with pytest.raises(InvalidMeasureError, match="for '%s'$" % word):
            assemble_laplacian(tree, mu, 2, HARMONIC)


def test_density():
    assert density(2)(Fraction(1, 2)) == Fraction(1, 4)
    assert density(0)(Fraction(1, 3)) == 1
    assert density(1.5)(0.25) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        density(-1)


def test_density_refuses_non_finite_exponents():
    for s in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            density(s)


# ---------------------------------------------------------------------------
# assembly


def test_two_by_two_example():
    tree = tree_for(FullShift(2), 1)
    mu = cylinder_measure(tree)
    lap = assemble_laplacian(tree, mu, 2, UNIT)
    mat = np.array(lap.rows, dtype=float)
    assert mat.tolist() == [[2.0, -2.0], [-2.0, 2.0]]
    assert spectrum(lap) == (0.0, 4.0)


def test_hand_dirichlet_form():
    tree = tree_for(FullShift(2), 1)
    mu = cylinder_measure(tree)
    # Q(f, f) = (f_a - f_b)^2 for rho(delta) = delta^2, delta_0 = 1
    assert dirichlet_form_value(tree, mu, 2, UNIT, [1, 0], [1, 0]) == 1
    assert dirichlet_form_value(tree, mu, 2, UNIT, [3, 1], [3, 1]) == 4


def test_constant_vector_annihilated_exactly():
    tree = tree_for(FullShift(3), 3)
    mu = cylinder_measure(tree, weights="random", seed=8)
    lap = assemble_laplacian(tree, mu, 1, HARMONIC)
    for row in lap.rows:
        assert sum(row) == 0


def test_routes_agree_exactly():
    for spec, N in ((FullShift(2), 4), (FullShift(3), 3),
                    (fibonacci_spec(), 6)):
        tree = tree_for(spec, N)
        for wts in (None, mild_weights(tree, 21)):
            mu = cylinder_measure(tree, weights=wts)
            for rho in (0, 1, 2):
                a = assemble_laplacian(tree, mu, rho, HARMONIC)
                b = assemble_laplacian_dirichlet(tree, mu, rho, HARMONIC)
                assert matrix_difference(a, b) == 0.0


def test_invariants_exact_for_rational_input():
    tree = tree_for(FullShift(2), 5)
    mu = cylinder_measure(tree, weights=mild_weights(tree, 5))
    lap = assemble_laplacian(tree, mu, 2, HARMONIC)
    checks = check_invariants(lap)
    assert checks["max_row_sum"] == 0.0
    assert checks["max_self_adjoint_defect"] == 0.0
    assert checks["row_ok"] and checks["adjoint_ok"]


def test_form_matches_matrix_pairing():
    tree = tree_for(fibonacci_spec(), 6)
    mu = cylinder_measure(tree, weights="random", seed=2)
    lap = assemble_laplacian(tree, mu, 1, HARMONIC)
    rng = np.random.default_rng(0)
    size = len(lap.leaves)
    f = rng.normal(size=size)
    g = rng.normal(size=size)
    q = dirichlet_form_value(tree, mu, 1, HARMONIC, list(f), list(g))
    mat = np.array(lap.rows, dtype=float)
    pairing = float(f @ (np.array(lap.mu_leaves, dtype=float) * (mat @ g)))
    assert float(q) == pytest.approx(pairing, abs=1e-10)
    q_sym = dirichlet_form_value(tree, mu, 1, HARMONIC, list(g), list(f))
    assert float(q) == pytest.approx(float(q_sym), abs=1e-12)


def test_form_rejects_wrong_vector_length():
    tree = tree_for(FullShift(2), 2)
    mu = cylinder_measure(tree)
    with pytest.raises(ValueError):
        dirichlet_form_value(tree, mu, 2, HARMONIC, [1, 2], [1, 2, 3, 4])


# ---------------------------------------------------------------------------
# restricted-pair variant


def test_pb_equals_full_on_binary_branching():
    tree = tree_for(fibonacci_spec(), 7)
    mu = cylinder_measure(tree, weights="random", seed=13)
    full = assemble_laplacian(tree, mu, 2, HARMONIC)
    for mode in ("single", "nu-average"):
        pb = assemble_pb_laplacian(tree, mu, 2, HARMONIC,
                                   pair_selection=mode)
        assert matrix_difference(full, pb) == 0.0


def test_pb_single_pair_conserves():
    tree = tree_for(FullShift(3), 3)
    mu = cylinder_measure(tree)
    pb = assemble_pb_laplacian(tree, mu, 2, HARMONIC)
    assert check_invariants(pb)["max_row_sum"] == 0.0


def test_pb_nu_average_is_mean_of_singles_uniform():
    tree = tree_for(FullShift(3), 3)
    mu = cylinder_measure(tree)
    nu = assemble_pb_laplacian(tree, mu, 2, HARMONIC,
                               pair_selection="nu-average")
    singles, children = [], children_of(tree)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        pair_list = [(n, leaf_range(tree, children[v][i]),
                      leaf_range(tree, children[v][j]), 1)
                     for n in range(1, tree.depth + 1)
                     for v in tree.levels[n - 1]]
        m = _assemble_bilinear(tree, mu, 2, HARMONIC, pair_list)
        singles.append(np.array(m.rows, dtype=float))
    mean = sum(singles) / 3
    assert np.abs(np.array(nu.rows, dtype=float) - mean).max() <= 1e-15


def test_pb_invalid_selection():
    tree = tree_for(FullShift(3), 2)
    mu = cylinder_measure(tree)
    with pytest.raises(ValueError):
        assemble_pb_laplacian(tree, mu, 2, HARMONIC,
                              pair_selection="every-other")


# ---------------------------------------------------------------------------
# spectra


def test_spectrum_degenerate_tree():
    tree = tree_for(FullShift(1), 3)
    mu = cylinder_measure(tree)
    lap = assemble_laplacian(tree, mu, 2, HARMONIC)
    assert spectrum(lap) == (0.0,)


def test_spectrum_trace_identity():
    tree = tree_for(FullShift(2), 4)
    mu = cylinder_measure(tree, weights="random", seed=31)
    lap = assemble_laplacian(tree, mu, 2, HARMONIC)
    ev = spectrum(lap)
    d = np.sqrt(np.array(lap.mu_leaves, dtype=float))
    sym = (d[:, None] * np.array(lap.rows, dtype=float)) / d[None, :]
    trace = float(np.trace(sym))
    assert math.fsum(ev) == pytest.approx(trace, rel=1e-9)
    assert ev[0] >= -1e-10


def assert_matches_dense(lap):
    """The block spectrum against the dense oracle, within 1e-10 of the
    largest |eigenvalue|, with exactly one 0.0."""
    got, want = spectrum(lap), dense_spectrum(lap)
    assert isinstance(got, tuple) and list(got) == sorted(got)
    assert all(type(x) is float for x in got)
    assert got.count(0.0) == 1
    assert len(got) == len(want)
    tol = 1e-10 * max(1.0, max(abs(want)))
    assert max(abs(x - y) for x, y in zip(got, want)) <= tol


def test_block_spectrum_matches_the_dense_oracle():
    count = 0
    for tree, mu, rho in criterion_9_configurations():
        assert_matches_dense(assemble_laplacian(tree, mu, rho, HARMONIC))
        count += 1
    assert count == 50
    # forks of three and four children, float entries (rho 1.5 and 0.5)
    for spec, N in ((FullShift(3), 4), (FullShift(4), 3)):
        tree = tree_for(spec, N)
        mu = cylinder_measure(tree, weights="random", seed=N)
        for rho in (1.5, 0.5):
            assert_matches_dense(assemble_laplacian(tree, mu, rho, HARMONIC))
    thue_morse = Substitution.from_rules({"a": "ab", "b": "ba"}, "a")
    for spec, N in ((thue_morse, 8), (ExplicitWindow("aabacbcab" * 2), 4)):
        tree = tree_for(spec, N)
        for rho in (2, 1.5):
            assert_matches_dense(assemble_laplacian(
                tree, cylinder_measure(tree, weights="random", seed=5), rho,
                HARMONIC))


@pytest.mark.parametrize("mode", ("single", "nu-average"))
def test_block_spectrum_of_the_pb_variants(mode):
    # their sibling blocks are constant as well; a single pair at a fork of
    # three leaves a child alone, whose Haar function keeps R(v)
    tree = tree_for(FullShift(3), 4)
    mu = cylinder_measure(tree, weights="random", seed=9)
    for rho in (2, 1.5):
        pb = assemble_pb_laplacian(tree, mu, rho, HARMONIC,
                                   pair_selection=mode)
        got, want = spectrum(pb), dense_spectrum(pb)
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-10 * max(
            abs(want))


def test_binary_block_spectrum_is_exact():
    # full:2, uniform, rho = 2: every level weight is 1, and the spectrum
    # is {0} and 3 * 2^m - 2 with multiplicity 2^(m-1), m = 1..N
    tree = tree_for(FullShift(2), 5)
    lap = assemble_laplacian(tree, cylinder_measure(tree), 2, HARMONIC)
    want = [0.0] + [float(3 * 2 ** m - 2) for m in range(1, 6)
                    for _ in range(2 ** (m - 1))]
    assert spectrum(lap) == tuple(want)


def block_trace(lap):
    """The exact eigenvalues of the blocks, summed with multiplicity: per
    fork a(v) R(v) plus the trace of its child block."""
    return sum((len(m) - 1) * r - sum(k[i][j] * m[j]
                                      for i in range(len(m))
                                      for j in range(len(m)) if j != i)
               for r, _, m, k in _fork_blocks(lap))


def test_exact_block_eigenvalues_sum_to_the_trace():
    thue_morse = Substitution.from_rules({"a": "ab", "b": "ba"}, "a")
    for spec, N in ((FullShift(2), 6), (FullShift(3), 4), (FullShift(4), 3),
                    (fibonacci_spec(), 30), (thue_morse, 12),
                    (ExplicitWindow("aabacbcab" * 2), 4)):
        tree = tree_for(spec, N)
        for weights in (None, "random"):
            mu = cylinder_measure(tree, weights=weights, seed=N)
            for rho in (0, 1, 2):
                lap = assemble_laplacian(tree, mu, rho, HARMONIC)
                assert lap.integers is not None
                trace = sum(lap.rows[i][i] for i in range(len(lap.leaves)))
                assert isinstance(trace, (int, Fraction))
                assert block_trace(lap) == trace


def test_spectrum_refuses_broken_matrix():
    leaves = ("a", "b")
    bad = LaplacianMatrix(leaves, ((1, 0), (0, 1)),
                          (Fraction(1, 2), Fraction(1, 2)), _shape(leaves))
    with pytest.raises(InvariantViolationError):
        spectrum(bad)


def test_spectrum_refuses_eigenvalues_off_the_trace():
    """A weighted path-graph Laplacian on the leaves of full:2 at depth 2
    passes the pre-check, but its sibling blocks are not constant: the
    block route reads (0, 0, 2, 6), which sums to 8, and the dense
    spectrum is about (0, 0.936, 3.305, 7.759), which sums to the trace 12.
    An eigenvalue sum equal to the trace is a necessary condition for the
    block structure, not a proof of it."""
    rows = ((1, -1, 0, 0), (-1, 3, -2, 0), (0, -2, 5, -3), (0, 0, -3, 3))
    leaves = ("aa", "ab", "ba", "bb")
    path = LaplacianMatrix(leaves, rows, (Fraction(1, 4),) * 4,
                           _shape(leaves))
    checks = check_invariants(path, tol=1e-8)
    assert checks["row_ok"] and checks["adjoint_ok"]
    assert math.fsum(dense_spectrum(path)) == pytest.approx(12)
    with pytest.raises(InvariantViolationError, match="sum to 8.0, the "
                       "trace is 12.0"):
        spectrum(path)


def test_spectrum_refuses_large_float_row_defect():
    # entries near 1e10 pass their rounding-sized absolute defects, but a
    # row off by 1e-3 of its terms is still refused
    big = 1e10
    leaves = ("a", "b")
    bad = LaplacianMatrix(leaves, ((big, -big), (-big, big * (1 + 1e-3))),
                          (Fraction(1, 2), Fraction(1, 2)), _shape(leaves))
    checks = check_invariants(bad, tol=1e-8)
    assert checks["adjoint_ok"] and not checks["row_ok"]
    assert checks["max_row_sum"] == pytest.approx(1e7)
    with pytest.raises(InvariantViolationError):
        spectrum(bad)


def test_matrix_difference_requires_same_leaves():
    t1 = tree_for(FullShift(2), 2)
    t2 = tree_for(FullShift(2), 3)
    mu1 = cylinder_measure(t1)
    mu2 = cylinder_measure(t2)
    a = assemble_laplacian(t1, mu1, 2, HARMONIC)
    b = assemble_laplacian(t2, mu2, 2, HARMONIC)
    with pytest.raises(ValueError):
        matrix_difference(a, b)


# ---------------------------------------------------------------------------
# block writes and integer checks against the entrywise loops they replaced


def indicator_loop(tree, mu, rho, delta):
    """assemble_laplacian's rows, each entry accumulated on its own."""
    w, leaves, mu_leaf = _frame(tree, mu, rho, delta)
    size, children = len(leaves), children_of(tree)
    rows = [[0] * size for _ in range(size)]
    for j, gamma in enumerate(leaves):
        for n in range(1, tree.depth + 1):
            parent, node = gamma[:n - 1], gamma[:n]
            a_parent = len(children[parent]) - 1
            if a_parent == 0:
                continue
            factor = w[n] / mu[leaf_range(tree, node)]
            rows[j][j] += factor * a_parent
            for u in children[parent]:
                if u == node:
                    continue
                lo, hi = leaf_range(tree, u)
                off = factor * mu_leaf[j] / mu[lo, hi]
                for i in range(lo, hi):
                    rows[i][j] -= off
    return tuple(map(tuple, rows))


def bilinear_loop(tree, mu, rho, delta, pair_list):
    """_assemble_bilinear's rows: the form matrix A entry by entry, then
    every row divided by its leaf mass."""
    w, leaves, mu_leaf = _frame(tree, mu, rho, delta)
    size = len(leaves)
    A = [[0] * size for _ in range(size)]
    for n, u1, u2, coeff in pair_list:
        c = coeff * w[n]
        for u, other in ((u1, u2), (u2, u1)):
            (lo, hi), (olo, ohi) = u, other
            cu = c / mu[u]
            for i in range(lo, hi):
                A[i][i] += cu * mu_leaf[i]
            cc = cu / mu[other]
            for i in range(lo, hi):
                fi = cc * mu_leaf[i]
                for k in range(olo, ohi):
                    A[i][k] -= fi * mu_leaf[k]
    return tuple(tuple(x / mu_leaf[i] for x in A[i]) for i in range(size))


def defects_loop(lap):
    rows, mu = lap.rows, lap.mu_leaves
    row = max((abs(sum(r)) for r in rows), default=0)
    adj = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            d = abs(mu[i] * rows[i][j] - mu[j] * rows[j][i])
            if d > adj:
                adj = d
    return row, adj


def difference_loop(lap_a, lap_b):
    return float(max((abs(x - y) for ra, rb in zip(lap_a.rows, lap_b.rows)
                      for x, y in zip(ra, rb)), default=0))


def bits(values):
    """Exact values as they are, floats by their repr (which tells every
    bit, the sign of zero included)."""
    if isinstance(values, (tuple, list)):
        return [bits(v) for v in values]
    return repr(values) if isinstance(values, float) else values


def criterion_9_configurations():
    """The trees, measures and exponents of acceptance criterion 9."""
    caps = {FullShift(2): 8, FullShift(3): 5, fibonacci_spec(): 8,
            SturmianCF((), ("linear",)): 8}
    for spec, cap in caps.items():
        for N in range(2, cap + 1):
            tree = tree_for(spec, N)
            for i in range(2):
                wts = None if i == 0 else mild_weights(tree, 1000 + N + i)
                yield tree, cylinder_measure(tree, weights=wts), (N + i) % 3


def assert_matches_loops(lap, want_rows):
    assert bits(lap.rows) == bits(want_rows)
    assert lap.floats == tuple(tuple(map(float, r)) for r in lap.rows)


def test_routes_match_the_entrywise_loops():
    # the reported maxima: the defects of the indicator route and its
    # difference from the Dirichlet oracle
    count = 0
    for tree, mu, rho in criterion_9_configurations():
        lap = assemble_laplacian(tree, mu, rho, HARMONIC)
        oracle = assemble_laplacian_dirichlet(tree, mu, rho, HARMONIC)
        assert all(isinstance(x, (int, Fraction))
                   for r in lap.rows + oracle.rows for x in r)
        assert_matches_loops(lap, indicator_loop(tree, mu, rho, HARMONIC))
        assert_matches_loops(oracle, bilinear_loop(
            tree, mu, rho, HARMONIC, _sibling_pairs(tree, mu, "all")))
        assert bits(lap.defects) == bits(defects_loop(lap))
        assert matrix_difference(lap, oracle) == difference_loop(lap, oracle)
        count += 1
    assert count == 50


@pytest.mark.parametrize("mode", ("single", "nu-average"))
def test_pb_rows_and_differences_match_the_loops(mode):
    # on full:3 the restricted-pair rows differ from the full ones, so the
    # difference takes its Fraction path
    tree = tree_for(FullShift(3), 4)
    mu = cylinder_measure(tree, weights="random", seed=4)
    lap = assemble_laplacian(tree, mu, 2, HARMONIC)
    pb = assemble_pb_laplacian(tree, mu, 2, HARMONIC, pair_selection=mode)
    assert_matches_loops(pb, bilinear_loop(tree, mu, 2, HARMONIC,
                                           _sibling_pairs(tree, mu, mode)))
    assert bits(pb.defects) == bits(defects_loop(pb))
    got = matrix_difference(lap, pb)
    assert got > 0 and got == difference_loop(lap, pb)
    assert matrix_difference(pb, lap) == got


@pytest.mark.parametrize("kind", (int, Fraction))
def test_planted_defects_match_the_loop(kind):
    # row 1 sums to 2/3; the pairs (0, 1) and (0, 2) are not mu-symmetric
    half, third = Fraction(1, 2), Fraction(1, 3)
    rows = ((kind(2), kind(-1), kind(-1)),
            (-half, 3 * half, -third),
            (kind(-1), -third, 4 * third))
    mu = (half, half / 2, half / 2)
    leaves = ("a", "b", "c")
    bad = LaplacianMatrix(leaves, rows, mu, _shape(leaves))
    assert bad.defects == (Fraction(2, 3), Fraction(3, 8))
    assert bits(bad.defects) == bits(defects_loop(bad))
    checks = check_invariants(bad)
    assert not checks["row_ok"] and not checks["adjoint_ok"]
    fixed = LaplacianMatrix(leaves,
                            (rows[0], (-half, 5 * third / 2, -third), rows[2]),
                            mu, _shape(leaves))
    assert fixed.defects[0] == 0
    # one entry differs from -1/3 in its denominator alone
    other = LaplacianMatrix(leaves,
                            (rows[0], (-half, 3 * half, -half), rows[2]), mu,
                            _shape(leaves))
    assert matrix_difference(bad, other) == difference_loop(bad, other) \
        == float(Fraction(1, 6))
    assert matrix_difference(bad, fixed) == difference_loop(bad, fixed) \
        == float(Fraction(2, 3))
    assert matrix_difference(bad, bad) == 0.0


def invariants_loop(lap, tol):
    """check_invariants on defects_loop, its pairs tested one by one."""
    row, adj = defects_loop(lap)
    rows, mu = lap.rows, lap.mu_leaves
    pairs = ((mu[i] * r[j], mu[j] * rows[j][i])
             for i, r in enumerate(rows) for j in range(i + 1, len(rows)))
    return {"max_row_sum": float(row),
            "max_self_adjoint_defect": float(adj),
            "row_ok": bool(row <= tol or all(
                abs(sum(r)) <= tol * max(1, sum(map(abs, r))) for r in rows)),
            "adjoint_ok": bool(adj <= tol or all(
                abs(x - y) <= tol * max(1, abs(x) + abs(y))
                for x, y in pairs))}


@pytest.mark.parametrize("delta", (HARMONIC, DeltaSequence.exponential()))
def test_float_matrices_match_the_loops_bit_for_bit(delta):
    # with exponential deltas the entries reach 1e4 and the largest pair
    # defect, 1.8e-12, takes the relative test at tol 1e-12
    tree = tree_for(FullShift(2), 8)
    mu = cylinder_measure(tree, weights="random", seed=1)
    lap = assemble_laplacian(tree, mu, 0.5, delta)
    oracle = assemble_laplacian_dirichlet(tree, mu, 0.5, delta)
    assert lap.integers is None and oracle.integers is None
    assert_matches_loops(lap, indicator_loop(tree, mu, 0.5, delta))
    assert_matches_loops(oracle, bilinear_loop(
        tree, mu, 0.5, delta, _sibling_pairs(tree, mu, "all")))
    assert bits(lap.defects) == bits(defects_loop(lap))
    assert lap.defects[1] > 0
    for tol in (1e-12, 1e-8, 1e-17):
        assert check_invariants(lap, tol) == invariants_loop(lap, tol)
    assert matrix_difference(lap, oracle) == difference_loop(lap, oracle)


@pytest.mark.parametrize("kind", (float, Fraction))
def test_planted_pair_tolerance_matches_the_loop(kind):
    # mu_0 M_01 = -1/2 and mu_1 M_10 = -3/4: a defect of 1/4 against terms
    # of 5/4, inside tol 1/4 but outside 1/8
    rows = ((kind(1), kind(-1)), (kind(-1.5), kind(1.5)))
    leaves = ("a", "b")
    lap = LaplacianMatrix(leaves, rows, (Fraction(1, 2),) * 2,
                          _shape(leaves))
    for tol in (0.25, 0.125, 1e-12):
        assert check_invariants(lap, tol) == invariants_loop(lap, tol)
    assert check_invariants(lap, 0.25)["adjoint_ok"]
    assert not check_invariants(lap, 0.125)["adjoint_ok"]


@st.composite
def float_matrices(draw):
    """Hand-built float matrices of 1 to 12 leaves: entries up to 1e12,
    infinities, NaN, int zeros and Fractions, which a float matrix reads as
    floats, masses in floats or Fractions.  Half of
    them are mu-symmetric up to rounding, mu_i M_ij = A_ij for a symmetric
    A, so that their pair defects are rounding-sized and large entries take
    the relative pair test."""
    n = draw(st.integers(1, 12))
    mu = draw(st.lists(st.one_of(
        st.floats(1e-6, 1.0), st.fractions(Fraction(1, 10 ** 6), 1)),
        min_size=n, max_size=n))
    a = draw(st.lists(st.one_of(
        st.floats(-1e12, 1e12), st.sampled_from((math.inf, -math.inf,
                                                 math.nan)), st.just(0),
        st.fractions(-10 ** 6, 10 ** 6, max_denominator=1000)),
        min_size=n * n, max_size=n * n))
    if draw(st.booleans()):
        rows = tuple(tuple(a[min(i, j) * n + max(i, j)] / mu[i]
                           for j in range(n)) for i in range(n))
    else:
        rows = tuple(tuple(a[i * n:(i + 1) * n]) for i in range(n))
    leaves = tuple(alphabet(n))
    return LaplacianMatrix(leaves, rows, tuple(mu), _shape(leaves))


@settings(max_examples=200, deadline=None)
@given(float_matrices(), st.sampled_from((1e-12, 1e-8, 0.25)))
def test_float_checks_match_numpy_bit_for_bit(lap, tol):
    # the pair walk in plain Python against the numpy arrays it replaced
    assume(lap.integers is None)
    defects, checks = float_invariants_by_numpy(lap, tol)
    assert bits(lap.defects) == bits(defects)
    got = check_invariants(lap, tol)
    assert (got["row_ok"], got["adjoint_ok"]) == (checks["row_ok"],
                                                  checks["adjoint_ok"])
    assert bits(sorted(got.items())) == bits(sorted(checks.items()))


def test_spectrum_reads_the_forks_kept_on_the_matrix():
    # the tree read its forks from its leaves once; the spectrum reads them
    # on the matrix and calls words._shape no more
    for spec, N in ((fibonacci_spec(), 30),
                    (ExplicitWindow("aabacbcab" * 2), 4)):
        tree = tree_for(spec, N)
        mu = cylinder_measure(tree, weights="random", seed=N)
        lap = assemble_laplacian(tree, mu, 2, HARMONIC)
        assert lap.forks is tree.forks
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is words._shape.__code__:
                calls.append(frame.f_code.co_name)

        old = sys.getprofile()
        sys.setprofile(profile)
        try:
            eigenvalues = spectrum(lap)
        finally:
            sys.setprofile(old)
        assert calls == []
        assert len(eigenvalues) == len(lap.leaves)


def trees_for_pairs():
    full = st.sampled_from(((1, 6), (2, 6), (3, 4))).flatmap(
        lambda kd: st.tuples(st.just(FullShift(kd[0])),
                             st.integers(1, kd[1])))
    # a doubled word w + w has every factor shorter than |w| + 2 extended
    window = st.integers(1, 3).flatmap(
        lambda k: st.text(alphabet(k), min_size=1, max_size=20)).flatmap(
        lambda w: st.tuples(st.just(ExplicitWindow(w + w)),
                            st.integers(1, min(8, len(w) + 1))))
    return st.one_of(full, window).map(lambda sN: tree_for(*sN))


@settings(max_examples=150, deadline=None)
@given(trees_for_pairs())
def test_sibling_pairs_partition_the_leaf_pairs(tree):
    # the block writes rely on it: every ordered pair of distinct leaves
    # lies under one sibling pair, in both of its directions, once.  A
    # pair at level n is the leaf ranges of two children of one word
    leaves = tree.leaves()
    mu = cylinder_measure(tree)
    for mode in ("all", "single", "nu-average"):
        covered = {}
        for n, u1, u2, _ in _sibling_pairs(tree, mu, mode):
            c1, c2 = leaves[u1[0]][:n], leaves[u2[0]][:n]
            assert c1 != c2 and c1[:-1] == c2[:-1]
            assert (u1, u2) == (leaf_range(tree, c1), leaf_range(tree, c2))
            for u, other in ((c1, c2), (c2, c1)):
                for i, x in enumerate(leaves):
                    for k, y in enumerate(leaves):
                        if x.startswith(u) and y.startswith(other):
                            covered[i, k] = covered.get((i, k), 0) + 1
        assert all(i != k for i, k in covered)
        assert max(covered.values(), default=1) == 1
        if mode == "all":
            assert len(covered) == len(leaves) * (len(leaves) - 1)


@settings(max_examples=60, deadline=None)
@given(trees_for_pairs(), st.integers(0, 2 ** 32))
def test_block_spectrum_matches_dense_on_random_trees(tree, seed):
    mu = cylinder_measure(tree, weights="random", seed=seed)
    assert_matches_dense(assemble_laplacian(tree, mu, 2, HARMONIC))


@settings(max_examples=100, deadline=None)
@given(trees_for_pairs(), st.integers(0, 2 ** 32))
def test_measure_matches_the_level_scan(tree, seed):
    # the scan gives every word a mass; the measure returns those of the
    # root, of the branching words' children and of the leaves
    weights = mild_weights(tree, seed)
    forks_only = {v: weights[v] for v in tree.forks}
    singles = {(i, i + 1) for i in range(len(tree.sorted_leaves))}
    for given, scanned in ((None, None), (weights, weights),
                           (forks_only, weights)):
        mu = cylinder_measure(tree, weights=given)
        want = measure_by_levels(tree, weights=scanned)
        assert masses_by_word(tree, mu, want) == want
        assert set(mu) == {leaf_range(tree, x) for x in want} >= singles


def test_random_measure_on_full_shifts_draws_as_the_level_scan():
    # every word below the depth of a full shift branches, so each draws
    # in the order the scan draws
    for k, N in ((2, 6), (3, 4)):
        tree = tree_for(FullShift(k), N)
        for seed in (0, 7, 2 ** 31):
            mu = cylinder_measure(tree, weights="random", seed=seed)
            want = measure_by_levels(tree, weights="random", seed=seed)
            # every word has a leaf range of its own
            assert len(mu) == len(want)
            assert masses_by_word(tree, mu, want) == want


def test_thue_morse_measure_at_300_keeps_no_levels():
    # the level scan (oracles.measure_by_levels) holds all 140,961 words,
    # about 54 MB under tracemalloc; the measure holds the masses of the
    # branching words' children and of the leaves, under 1 MB
    tree = tree_for(Substitution.from_rules({"a": "ab", "b": "ba"}, "a"),
                    300)
    assert len(tree.sorted_leaves) == 940
    tracemalloc.start()
    try:
        mu = cylinder_measure(tree, weights="random", seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "levels" not in vars(tree)
    assert {(i, i + 1) for i in range(940)} <= set(mu)
    assert peak < 2 * 2 ** 20
