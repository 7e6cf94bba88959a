import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ultratree.words import FullShift, fibonacci_spec
from ultratree.tree import DeltaSequence, tree_for
from ultratree.laplacian import (InvalidMeasureError,
                                 InvariantViolationError, LaplacianMatrix,
                                 _assemble_bilinear, assemble_laplacian,
                                 assemble_laplacian_dirichlet,
                                 assemble_pb_laplacian, check_invariants,
                                 cylinder_measure, density,
                                 dirichlet_form_value, matrix_difference,
                                 spectrum)

HARMONIC = DeltaSequence.harmonic()
UNIT = DeltaSequence.table([1.0])


def mild_weights(tree, seed):
    rng = random.Random(seed)
    out = {}
    for n in range(tree.depth):
        for v in tree.levels[n]:
            raw = [rng.randint(50, 100) for _ in tree.children[v]]
            total = sum(raw)
            out[v] = [Fraction(r, total) for r in raw]
    return out


# ---------------------------------------------------------------------------
# measures


def test_uniform_measure_additivity():
    tree = tree_for(FullShift(2), 4)
    mu = cylinder_measure(tree)
    assert mu[""] == 1
    for n in range(4):
        for v in tree.levels[n]:
            assert mu[v] == sum(mu[c] for c in tree.children[v])
    assert mu["abab"] == Fraction(1, 16)


def test_random_measure_additivity_and_determinism():
    tree = tree_for(fibonacci_spec(), 6)
    mu1 = cylinder_measure(tree, weights="random", seed=3)
    mu2 = cylinder_measure(tree, weights="random", seed=3)
    assert mu1 == mu2
    for n in range(6):
        for v in tree.levels[n]:
            assert mu1[v] == sum(mu1[c] for c in tree.children[v])
            assert mu1[v] > 0


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


def test_measure_tree_mismatch():
    tree = tree_for(FullShift(2), 2)
    mu = cylinder_measure(tree)
    del mu["ab"]
    with pytest.raises(InvalidMeasureError):
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
    assert spectrum(lap).tolist() == [0.0, 4.0]


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
    singles = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        pair_list = [(n, tree.children[v][i], tree.children[v][j], 1)
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
    assert spectrum(lap).tolist() == [0.0]


def test_spectrum_trace_identity():
    tree = tree_for(FullShift(2), 4)
    mu = cylinder_measure(tree, weights="random", seed=31)
    lap = assemble_laplacian(tree, mu, 2, HARMONIC)
    ev = spectrum(lap)
    d = np.sqrt(np.array(lap.mu_leaves, dtype=float))
    sym = (d[:, None] * np.array(lap.rows, dtype=float)) / d[None, :]
    trace = float(np.trace(sym))
    assert ev.sum() == pytest.approx(trace, rel=1e-9)
    assert ev[0] >= -1e-10


def test_spectrum_refuses_broken_matrix():
    bad = LaplacianMatrix(("a", "b"), ((1, 0), (0, 1)),
                          (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(InvariantViolationError):
        spectrum(bad)


def test_spectrum_refuses_large_float_row_defect():
    # entries near 1e10 pass their rounding-sized absolute defects, but a
    # row off by 1e-3 of its terms is still refused
    big = 1e10
    bad = LaplacianMatrix(("a", "b"),
                          ((big, -big), (-big, big * (1 + 1e-3))),
                          (Fraction(1, 2), Fraction(1, 2)))
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
