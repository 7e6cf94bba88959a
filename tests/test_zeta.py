import math

import pytest

from ultratree.words import (ExplicitWindow, FullShift, SturmianCF,
                             fibonacci_spec, language_table)
from ultratree.tree import DeltaSequence, tree_for
from ultratree.zeta import (InsufficientDepthError, LevelProfile,
                            abscissa_estimate, exponent_estimates,
                            level_profile, zeta_partials)


def grid(lo, hi, step):
    count = int(round((hi - lo) / step))
    return [lo + i * step for i in range(count + 1)]


def test_level_profile_closed_forms_match_tree():
    for spec, N in ((FullShift(2), 6), (FullShift(3), 4),
                    (fibonacci_spec(), 10)):
        closed = level_profile(spec, N)
        from_tree = level_profile(tree_for(spec, N))
        assert closed == from_tree


def test_level_profile_from_table():
    table = language_table(ExplicitWindow("aabab"), 4)
    prof = level_profile(table)
    assert prof.P == table.counts
    assert prof.depth == 4


def test_level_profile_needs_depth_for_spec():
    with pytest.raises(ValueError):
        level_profile(FullShift(2))


def test_full_binary_partial_value():
    delta = DeltaSequence.geometric(0.5)
    partials = zeta_partials(FullShift(2), delta, [2.0], (3,))
    assert partials.partials["full"][0][0] == pytest.approx(3.5)


def test_fibonacci_all_variants_equal():
    delta = DeltaSequence.harmonic()
    partials = zeta_partials(fibonacci_spec(), delta, grid(0.2, 3.0, 0.1),
                             (16, 32, 64))
    assert partials.partials["full"] == partials.partials["low"]
    assert partials.partials["low"] == partials.partials["pb"]


def test_ordering_and_monotonicity():
    delta = DeltaSequence.harmonic()
    s_grid = grid(0.2, 3.0, 0.2)
    for spec in (FullShift(3), fibonacci_spec()):
        partials = zeta_partials(spec, delta, s_grid, (8, 16, 32))
        for i in range(len(s_grid)):
            full = partials.partials["full"][i]
            low = partials.partials["low"][i]
            pb = partials.partials["pb"][i]
            for j in range(3):
                assert pb[j] <= low[j] + 1e-12
                assert low[j] <= full[j] + 1e-12
            assert full[0] <= full[1] <= full[2]
        # antitone in s at fixed truncation
        finals = [partials.partials["full"][i][-1]
                  for i in range(len(s_grid))]
        assert all(x >= y for x, y in zip(finals, finals[1:]))


def test_bounded_branching_comparison():
    delta = DeltaSequence.harmonic()
    spec = FullShift(3)
    prof = level_profile(spec, 16)
    B = max(2, 1)  # a(v) = 2 everywhere
    partials = zeta_partials(prof, delta, [1.0, 2.0], (16,))
    for i in range(2):
        full = partials.partials["full"][i][-1]
        low = partials.partials["low"][i][-1]
        assert full <= (B + 1) * low + 1e-12


def test_binary_branching_exact_equality():
    delta = DeltaSequence.harmonic()
    for spec in (FullShift(2), fibonacci_spec()):
        partials = zeta_partials(spec, delta, grid(0.2, 3.0, 0.05),
                                 (64, 128, 256))
        assert partials.partials["full"] == partials.partials["low"]


def test_overflow_reported_as_inf():
    delta = DeltaSequence.harmonic()
    partials = zeta_partials(FullShift(2), delta, [0.2], (2048,))
    assert math.isinf(partials.partials["full"][0][0])


def test_schedule_validation():
    delta = DeltaSequence.harmonic()
    with pytest.raises(ValueError):
        zeta_partials(FullShift(2), delta, [1.0], (8, 8))
    with pytest.raises(InsufficientDepthError):
        zeta_partials(level_profile(FullShift(2), 8), delta, [1.0], (16,))


def test_abscissa_fibonacci_harmonic():
    delta = DeltaSequence.harmonic()
    partials = zeta_partials(fibonacci_spec(), delta, grid(0.2, 3.0, 0.05),
                             (1024, 2048, 4096))
    reports = abscissa_estimate(partials)
    lo, hi = reports["low"].bracket
    assert lo <= 1.0 <= hi
    assert hi - lo <= 0.2
    assert reports["low"].estimate == pytest.approx(0.5 * (lo + hi))


def test_abscissa_geometric_synthetic():
    # edge counts 2 * 3^n with delta_n = 2^-n converge iff s > ln3/ln2
    N = 64
    P = tuple(3 ** n for n in range(N + 1))
    g = tuple(P[n + 1] - P[n] for n in range(N))
    prof = LevelProfile(N, P, g, tuple(2 * 3 ** n for n in range(N)),
                        tuple(1 for _ in range(N)))
    delta = DeltaSequence.geometric(0.5)
    partials = zeta_partials(prof, delta, grid(1.0, 2.2, 0.05),
                             (16, 32, 64))
    rep = abscissa_estimate(partials)["full"]
    target = math.log(3) / math.log(2)
    lo, hi = rep.bracket
    assert lo <= target + 0.05 and hi >= target - 0.05


def test_abscissa_not_applicable_single_letter():
    delta = DeltaSequence.harmonic()
    partials = zeta_partials(FullShift(1), delta, [1.0, 2.0], (8, 16, 32))
    rep = abscissa_estimate(partials)["full"]
    assert not rep.applicable and rep.estimate is None


def test_abscissa_needs_three_points():
    delta = DeltaSequence.harmonic()
    partials = zeta_partials(FullShift(2), delta, [2.0], (8, 16))
    with pytest.raises(ValueError):
        abscissa_estimate(partials)


def test_exponents_fibonacci():
    prof = level_profile(fibonacci_spec(), 256)
    rep = exponent_estimates(prof.P, prof.g, 256)
    assert rep.beta_lower == pytest.approx(1.0, abs=rep.tolerance)
    assert rep.beta_upper == pytest.approx(1.0, abs=rep.tolerance)
    assert rep.eta_lower == 1.0 and rep.eta_upper == 1.0
    assert not rep.super_polynomial
    assert rep.beta_lower <= rep.eta_lower + rep.tolerance
    assert rep.eta_upper <= rep.beta_upper + rep.tolerance


def test_exponents_full_binary_super_polynomial():
    prof = level_profile(FullShift(2), 64)
    rep = exponent_estimates(prof.P, prof.g, 64)
    assert rep.super_polynomial


def test_exponents_insufficient_depth():
    prof = level_profile(FullShift(2), 8)
    with pytest.raises(InsufficientDepthError):
        exponent_estimates(prof.P, prof.g, 8)
