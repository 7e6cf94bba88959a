import math
from contextlib import contextmanager
from itertools import accumulate, repeat
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultratree import zeta
from ultratree.words import (ExplicitWindow, FullShift, ScaledPowers,
                             SturmianCF, Substitution, fibonacci_spec,
                             language_table)
from ultratree.tree import DeltaSequence, delta_from_name
from ultratree.zeta import (InsufficientDepthError, LevelProfile,
                            abscissa_estimate, exponent_estimates,
                            level_profile, zeta_partials)

from oracles import fsum_partials, plain_partials, tree_for, zeta_series


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


def tuple_profile(k, N):
    """The full-shift profile as tuples of big integers, built as before
    the counts were streamed: the oracle for ScaledPowers."""
    P = tuple(accumulate([k] * N, mul, initial=1))
    g = tuple(P[n + 1] - P[n] for n in range(N))
    edge = tuple(P[n] * (k - 1) * k for n in range(N))
    branching = P[:N] if k > 1 else (0,) * N
    return LevelProfile(N, P, g, edge, branching)


@pytest.mark.parametrize("k", (1, 2, 3, 4))
@pytest.mark.parametrize("N", (1, 2, 17, 300))
def test_streamed_full_shift_profile_reads_as_tuples(k, N):
    got, want = level_profile(FullShift(k), N), tuple_profile(k, N)
    assert got == want and want == got
    for name in ("P", "g", "edge_weight", "branching"):
        seq, ref = getattr(got, name), getattr(want, name)
        assert not isinstance(seq, tuple)
        n = len(ref)
        assert len(seq) == n and tuple(seq) == ref
        assert seq == ref and ref == seq and not seq != ref
        assert seq != ref[:-1] and seq != list(ref)
        assert hash(seq) == hash(ref)
        assert [seq[i] for i in range(-n, n)] == [ref[i] for i in range(-n, n)]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                seq[i]
        bounds = (None, 0, 1, n // 2, n - 1, n, n + 3, -1, -n, -n - 3)
        for lo in bounds:
            for hi in bounds:
                part = seq[lo:hi]
                assert len(part) == len(ref[lo:hi]) and part == ref[lo:hi]
                assert part[1:] == ref[lo:hi][1:]
        assert seq[::3] == ref[::3] and seq[::-1] == ref[::-1]


@pytest.mark.parametrize("k", (2, 3))
def test_streamed_full_shift_zeta_equals_tuple_route(k):
    # the streamed counts are geometric sums under exp and geom, and take
    # their logs as ln c + n ln k under harmonic and powerlog:1.5,1; the
    # tuple route takes math.log of each integer level by level.  Each
    # equals its oracle: the closed forms the fsum of their exact terms,
    # every other row the plain sum on the same counts
    N = 2048
    schedule = (512, 1024, N)
    tuples = tuple_profile(k, N)
    streamed = level_profile(FullShift(k), N)
    for name in ("exp", "harmonic", "powerlog:1.5,1", "geom:0.5"):
        for profile in (streamed, tuples):
            assert oracle_mismatches(profile, name, ORACLE_GRIDS["default"],
                                     schedule) == [], name
    assert (exponent_estimates(streamed.P, streamed.g, N)
            == exponent_estimates(tuples.P, tuples.g, N))


@pytest.mark.parametrize("k", (1, 2, 3, 5))
def test_exponent_windows_of_scaled_powers_equal_tuple_route(k):
    # the tuple route reads every level of the window: the same integers as
    # plain ints, with no estimate
    for N in (*range(16, 101), 1023, 1024, 1025, 4096, 16384):
        prof = level_profile(FullShift(k), N)
        assert (repr(exponent_estimates(prof.P, prof.g, N))
                == repr(exponent_estimates(tuple(prof.P), tuple(prof.g), N)))


@pytest.mark.parametrize("scale, k, start, N", (
    # ln(scale k^(start + n)) / ln n is least at an inner level of the window
    (1, 2, 5900, 1100), (7, 3, 4000, 1100), (1, 5, 10 ** 4, 1800),
    # constant counts: the ratio falls across the window
    (3, 1, 0, 50)))
def test_exponent_windows_with_an_inner_minimum(scale, k, start, N):
    P = ScaledPowers(scale, k, start + N + 1, start)
    g = ScaledPowers(scale, k, start + N, start)
    assert (repr(exponent_estimates(P, g, N))
            == repr(exponent_estimates(tuple(P), tuple(g), N)))


@pytest.fixture
def logged(monkeypatch):
    """The coefficients of each series whose logs zeta_partials takes level
    by level: a tuple's by _log_coefficients, as (c, k) those of c k^n by
    _power_logs."""
    logged = []
    log_coefficients, power_logs = zeta._log_coefficients, zeta._power_logs
    monkeypatch.setattr(zeta, "_log_coefficients",
                        lambda c: logged.append(c) or log_coefficients(c))
    monkeypatch.setattr(zeta, "_power_logs", lambda c, k, stop: logged.append(
        (c, k)) or power_logs(c, k, stop))
    return logged


@pytest.mark.parametrize("spec, series", (
    (FullShift(2), 1), (FullShift(3), 3), (FullShift(1), 0),
    # constant series take the log of their one coefficient alone: 2 in all
    # three Sturmian series, 6, 4 and 2 in the Tribonacci ones
    (fibonacci_spec(), 0),
    (Substitution.from_rules({"a": "ab", "b": "ba"}, "a"), 1),
    (Substitution.from_rules({"a": "ab", "b": "ac", "c": "a"}, "a"), 0),
    (SturmianCF((), ("linear",)), 0),
    (Substitution.from_rules({"a": "abc", "b": "bc", "c": "a"}, "a"), 3)))
def test_each_distinct_series_is_logged_once(logged, spec, series):
    zeta_partials(spec, DeltaSequence.harmonic(), [1.0, 2.0], (8, 16, 32))
    assert len(logged) == series
    # a full shift's doubled counts are never multiplied out: equal
    # ScaledPowers compare by their parameters, and their logs are ln c +
    # n ln k; full:1's series are all 0 and take no log
    if isinstance(spec, FullShift):
        assert all(isinstance(c, tuple) and len(c) == 2 for c in logged)


def test_sturmian_zeta_reads_one_coefficient_and_one_eta_level(
        logged, monkeypatch):
    # the counts are ScaledPowers constants, whose terms are never read:
    # no per-level coefficient log, and the eta window is one level
    N = 4096
    prof = level_profile(SturmianCF((1, 2), ("linear",)), N)
    assert all(isinstance(getattr(prof, name), ScaledPowers)
               for name in ("g", "edge_weight", "branching"))
    assert prof.P == tuple(range(1, N + 2))
    monkeypatch.setattr(ScaledPowers, "__iter__", None)
    eta_levels = []
    eta = zeta._eta
    monkeypatch.setattr(zeta, "_eta",
                        lambda n, x: eta_levels.append(n) or eta(n, x))
    partials = zeta_partials(prof, DeltaSequence.harmonic(),
                             ORACLE_GRIDS["default"], (1024, 2048, N))
    report = exponent_estimates(prof.P, prof.g, N)
    assert logged == [] and eta_levels == [N // 2]
    assert report.eta_lower == report.eta_upper == 1.0
    assert partials.partials["full"] == partials.partials["pb"]


@pytest.mark.parametrize("k", (2, 3))
def test_full_shift_exponent_windows_read_their_two_ends(k, monkeypatch):
    # P and g rise at both ends of their windows, so each window reads its
    # first and last level alone
    N = 16384
    prof = level_profile(FullShift(k), N)
    levels = {"beta": [], "eta": []}
    for name in levels:
        ratio = getattr(zeta, "_" + name)
        monkeypatch.setattr(zeta, "_" + name, lambda n, x, ratio=ratio,
                            seen=levels[name]: seen.append(n) or ratio(n, x))
    report = exponent_estimates(prof.P, prof.g, N)
    assert levels == {"beta": [N // 2, N], "eta": [N // 2, N - 1]}
    assert report.window == (N // 2, N) and report.super_polynomial


def sturmian_tuple_profile(N):
    """A Sturmian profile as all tuples, as level_profile made it before
    its constant counts were ScaledPowers."""
    return LevelProfile(N, tuple(range(1, N + 2)), (1,) * N, (2,) * N,
                        (1,) * N)


def zeta_reports(source, delta, s_grid, schedule):
    """The partials, abscissa reports and exponent report, by repr."""
    partials = zeta_partials(source, delta, s_grid, schedule)
    prof = partials.profile
    return (repr(partials.partials), repr(abscissa_estimate(partials)),
            repr(exponent_estimates(prof.P, prof.g, schedule[-1])))


@st.composite
def delta_families(draw, N):
    """A fresh delta of one of the five families, by a factory."""
    family = draw(st.sampled_from(
        ("exp", "harmonic", "powerlog", "geom", "table")))
    if family == "powerlog":
        a = draw(st.floats(0.25, 3.0))
        b = draw(st.floats(0.0, 2.0))
        return lambda: DeltaSequence.powerlog(a, b)
    if family == "geom":
        q = draw(st.floats(0.01, 0.99))
        return lambda: DeltaSequence.geometric(q)
    if family == "table":
        # from above 1, where negative s make rising terms, or from just
        # below, where s of 300 to 800 make subnormal terms from the first
        # level on, down by a fixed factor per level to no lower than
        # 2^-1000
        top = draw(st.one_of(st.floats(-3.0, 0.0), st.floats(0.0, 900.0)))
        step = draw(st.floats(0.01, 1.0)) * (top + 1000.0) / N
        values = [2.0 ** (top - n * step) for n in range(N)]
        return lambda: DeltaSequence.table(values)
    return lambda: delta_from_name(family)


S_VALUES = st.one_of(st.floats(-8.0, 0.0), st.floats(0.0, 4.0),
                     st.floats(300.0, 800.0),
                     st.sampled_from((math.nan, math.inf, -math.inf)))


@st.composite
def sturmian_runs(draw):
    N = draw(st.integers(16, 1500))
    inner = draw(st.lists(st.integers(2, N - 1), min_size=1, max_size=3,
                          unique=True))
    schedule = (draw(st.sampled_from((0, 1))), *sorted(inner), N)
    tail = draw(st.sampled_from((("linear",), ("pow2",), ("constant", 1),
                                 ("constant", 3))))
    mu = tuple(draw(st.lists(st.integers(1, 4), max_size=3)))
    spec = SturmianCF((draw(st.integers(0, 3)),) + mu, tail)
    return spec, draw(delta_families(N)), draw(st.lists(
        S_VALUES, min_size=1, max_size=8)), schedule


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sturmian_runs())
def test_sturmian_constant_counts_equal_the_tuple_route(run):
    # the tuple route is the per-level one: its coefficient logs, levels,
    # suffix maxima and every level of the eta window.  The closed forms
    # are off on both routes (test_closed_form_partials_equal_their_oracles
    # checks them), so this compares the rows summed level by level
    spec, delta, s_grid, schedule = run
    with closed_forms_off():
        got = zeta_reports(spec, delta(), s_grid, schedule)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(zeta, "_powers", lambda coeff: None)
            want = zeta_reports(sturmian_tuple_profile(schedule[-1]),
                                delta(), s_grid, schedule)
    assert got == want


@pytest.mark.parametrize("delta_name, schedule, series, overflow_below", (
    # 2 * 3^4095 * 4096^-s, the least first-point term of the three, passes
    # e^709 for every s of the grid
    ("harmonic", (4096, 8192, 16384), 0, math.inf),
    # 2 * 3^1023 * e^(-1023 s) passes e^709 for s below about 0.41 only;
    # the three series are geometric sums, which take no log level by level
    ("exp", (1024, 2048), 0, 0.41)))
def test_series_overflowing_at_the_first_point_take_no_logs(
        logged, delta_name, schedule, series, overflow_below):
    s_grid = ORACLE_GRIDS["default"]
    got = zeta_partials(FullShift(3), delta_from_name(delta_name), s_grid,
                        schedule).partials
    assert len(logged) == series
    for rows in got.values():
        overflow = [s for s, row in zip(s_grid, rows)
                    if row == (math.inf,) * len(schedule)]
        assert overflow == [s for s in s_grid if s < overflow_below]


def test_scaled_powers_equal_by_parameters_without_reading(monkeypatch):
    a, b = ScaledPowers(2, 2, 10 ** 9), ScaledPowers(2, 2, 10 ** 9)
    assert ScaledPowers(2, 2, 300, 1)[:4] == (4, 8, 16, 32)
    monkeypatch.setattr(ScaledPowers, "__iter__", None)
    assert a == b and not a != b


@pytest.mark.parametrize("spec, delta_name", (
    (SturmianCF((), ("constant", 1)), "harmonic"), (FullShift(2), "exp")))
def test_closed_form_runs_realize_no_delta_log(monkeypatch, spec,
                                               delta_name):
    # 57 s values at depth 2^16, each partial in closed form: no delta log
    # is realized and no integer c k^n is made
    monkeypatch.setattr(ScaledPowers, "__iter__", None)
    delta = delta_from_name(delta_name)
    N = 2 ** 16
    zeta_partials(spec, delta, ORACLE_GRIDS["default"], (N // 4, N // 2, N))
    assert delta._logs == [] and delta._values == []


def test_full_binary_harmonic_takes_no_integer_log(logged, monkeypatch):
    # the overflow cut and the coefficient logs of c k^n are ln c + n ln k
    monkeypatch.setattr(ScaledPowers, "__iter__", None)
    zeta_partials(FullShift(2), DeltaSequence.harmonic(),
                  ORACLE_GRIDS["negative"], (256, 512, 1024))
    assert logged == [(2, 2)]


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


# ---------------------------------------------------------------------------
# zeta_partials against the plain level-by-level sum


ORACLE_SOURCES = {
    "full:1": (FullShift(1), 1024),
    "full:2": (FullShift(2), 1024),
    "full:3": (FullShift(3), 1024),
    "fibonacci": (fibonacci_spec(), 1024),
    "cf=1,2,linear": (SturmianCF((1, 2), ("linear",)), 1024),
    # sources below depth 1024 are read off their tables
    "thue-morse": (Substitution.from_rules({"a": "ab", "b": "ba"}, "a"), 128),
    "a=abc,b=bc,c=a": (Substitution.from_rules(
        {"a": "abc", "b": "bc", "c": "a"}, "a"), 128),
    # g is 0 at levels 5 and 6 and -1 from 7 on, no word branches past 6
    "window": (ExplicitWindow("aabaaabaaaab"), 10),
}
ORACLE_GRIDS = {
    "default": grid(0.2, 3.0, 0.05),
    "negative": grid(-1.0, 1.0, 0.25),
    "large": [0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0, 300.0],
}
# powerlog:1.5,1 has delta_0 = ln 2, so on this grid the first Fibonacci
# term, 2 (ln 2)^s, runs from e^-743 through the smallest subnormal float
# (e^-745.13) to 0.0, and every later term is 0.0
SUBNORMAL_GRID = grid(2030.0, 2036.0, 0.05)
_profiles = {}


def oracle_profile(name):
    if name not in _profiles:
        spec, N = ORACLE_SOURCES[name]
        source = language_table(spec, N) if N < 1024 else spec
        _profiles[name] = level_profile(source, N)
    return _profiles[name]


@contextmanager
def closed_forms_off():
    """Every series summed level by level, as before the closed forms."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DeltaSequence, "closed_form", lambda self, N: None)
        yield


def row_mismatch(got, loop, exact):
    """None if a row agrees with its oracle, else why not: a closed-form
    row (exact not None) lies within 1e-14 of the fsum of its exact terms
    and is inf exactly where the level-by-level sum is; any other row is
    the level-by-level sum, by repr."""
    if exact is None:
        return None if repr(got) == repr(loop) else "loop"
    for g, want, e in zip(got, loop, exact):
        if math.isinf(g) != math.isinf(want):
            return "inf"
        if not math.isinf(g) and not abs(g - e) <= 1e-14 * e:
            return "closed form %r, fsum %r" % (g, e)
    return None


def oracle_mismatches(profile, delta_name, s_grid, schedule):
    """The variants whose rows miss their oracles (see row_mismatch)."""
    got = zeta_partials(profile, delta_from_name(delta_name), s_grid,
                        schedule).partials
    loop = plain_partials(profile, delta_from_name(delta_name), s_grid,
                          schedule)
    exact = fsum_partials(profile, delta_name, s_grid, schedule)
    closed = closed_form_rows(profile, delta_name, s_grid, schedule)
    return [v for v in zeta.VARIANTS if any(
        row_mismatch(g, want, e if is_closed else None) is not None
        for g, want, e, is_closed in zip(
            got[v], loop[v], exact[v] or repeat(None), closed[v]))]


def loop_mismatches(profile, delta_name, s_grid, schedule):
    """The variants whose rows, all summed level by level, are not the
    plain sum by repr."""
    with closed_forms_off():
        got = zeta_partials(profile, delta_from_name(delta_name), s_grid,
                            schedule).partials
    want = plain_partials(profile, delta_from_name(delta_name), s_grid,
                          schedule)
    return [v for v in zeta.VARIANTS if repr(got[v]) != repr(want[v])]


def closed_form_rows(profile, delta_name, s_grid, schedule):
    """For each variant, whether each s takes a closed form: finite s, a
    series c k^n with c > 0, and a delta with a closed form, a power one
    only for k = 1."""
    form = delta_from_name(delta_name).closed_form(schedule[-1]) if not (
        delta_name.startswith("table")) else None
    out = {}
    for variant, coeff in zeta_series(profile).items():
        powers = zeta._powers(coeff[:schedule[-1]])
        closed = (form is not None and powers is not None and powers[0] > 0
                  and (form[0] == "ratio" or powers[1] == 1))
        out[variant] = [closed and math.isfinite(s) for s in s_grid]
    return out


@pytest.mark.parametrize("delta_name",
                         ("exp", "harmonic", "geom:0.1", "powerlog:1.5,1"))
@pytest.mark.parametrize("name", sorted(ORACLE_SOURCES))
def test_partials_equal_plain_sum(name, delta_name):
    # closed-form rows against the fsum of their exact terms, and with the
    # closed forms off every row against the plain sum
    profile = oracle_profile(name)
    N = profile.depth
    schedule = (N // 8, N // 4, N // 2, N)
    for s_grid in ORACLE_GRIDS.values():
        assert oracle_mismatches(profile, delta_name, s_grid,
                                 schedule) == []
        assert loop_mismatches(profile, delta_name, s_grid, schedule) == []


@pytest.mark.parametrize("k, delta_name, schedule", (
    # the first point overflows for every s of the default grid
    (2, "harmonic", (1100, 1536, 2048)),
    (3, "powerlog:1.5,1", (1024, 1536, 2048)),
    # s below about 0.41 overflows at the first point, larger s sum
    (3, "exp", (1024, 2048)),
    # the last level overflows on the default grid; a schedule from 0 has
    # no level in its first partial, whose sum is 0.0
    (2, "harmonic", (0, 2000)), (2, "harmonic", (1, 2000)),
    (3, "harmonic", (0, 2000)), (3, "harmonic", (1, 2000))))
def test_partials_equal_plain_sum_past_the_first_point(k, delta_name,
                                                      schedule):
    profile = level_profile(FullShift(k), schedule[-1])
    for s_grid in ORACLE_GRIDS.values():
        assert oracle_mismatches(profile, delta_name, s_grid,
                                 schedule) == []
        assert loop_mismatches(profile, delta_name, s_grid, schedule) == []
    if schedule[0] == 0:
        rows = zeta_partials(profile, delta_from_name(delta_name),
                             ORACLE_GRIDS["default"], schedule).partials
        assert all(row[0] == 0.0 for v in rows for row in rows[v])


def test_partials_overflow_mid_schedule():
    profile = oracle_profile("full:3")
    schedule = (128, 256, 512, 1024)
    s_grid = ORACLE_GRIDS["default"]
    rows = zeta_partials(profile, DeltaSequence.harmonic(), s_grid,
                         schedule).partials["full"]
    # 6 * 3^n (n + 1)^-0.2 passes e^709 near n = 645
    assert math.isfinite(rows[0][2]) and math.isinf(rows[0][3])
    assert oracle_mismatches(profile, "harmonic", s_grid, schedule) == []


def test_a_term_log_just_past_709_makes_the_partial_inf():
    # at s = -2 the last term log is ln c + 708.4: exp of it is a finite
    # float, but the plain sum counts it as inf.  full is summed level by
    # level, low and pb as constant series
    values = [1.0, 0.5, math.exp(-354.2)]
    prof = LevelProfile(3, (1, 2, 3, 4), (1, 1, 1), (2, 4, 2), (1, 1, 1))
    for source in (prof, level_profile(fibonacci_spec(), 3)):
        got = zeta_partials(source, DeltaSequence.table(values), [-2.0],
                            (2, 3)).partials
        want = plain_partials(source, DeltaSequence.table(values), [-2.0],
                              (2, 3))
        assert repr(got) == repr(want)
        assert all(math.isfinite(rows[0][0]) and rows[0][1] == math.inf
                   for rows in got.values())


def test_partials_cut_on_a_schedule_point():
    # every Sturmian coefficient is 2, so with exponential delta the log of
    # term n is ln 2 - s n: it first falls below -746 at n = 374 for s = 2
    # and at n = 747 for s = 1, both schedule points.  The level-by-level
    # sum cuts there; the closed form sums every term
    profile = oracle_profile("fibonacci")
    for s, cut in ((2.0, 374), (1.0, 747)):
        assert math.log(2) - s * (cut - 1) >= -746.0 > math.log(2) - s * cut
    assert loop_mismatches(profile, "exp", [1.0, 2.0],
                           (374, 747, 1024)) == []
    assert oracle_mismatches(profile, "exp", [1.0, 2.0],
                             (374, 747, 1024)) == []


def test_rising_power_sums_over_few_levels_take_every_term():
    # 2 m^24 (powerlog:3,0 at s = -8): at 40 levels the Euler-Maclaurin
    # remainder bound is about 8e-14 of the sum, so those partials add
    # their terms; from 64 levels on the closed form holds
    profile = oracle_profile("fibonacci")
    schedule = (33, 40, 64, 100, 240, 1000)
    assert oracle_mismatches(profile, "powerlog:3.0,0", [-8.0, -3.0, -1.5],
                             schedule) == []
    # terms and corrections near and past the float range: 2 m^51 at 1024
    # levels is about e^354, 2 m^1000 passes e^709 from m = 3
    assert oracle_mismatches(profile, "harmonic", [-1000.0, -180.0, -102.0,
                                                   -51.0, -40.0],
                             (1, 2, 3, 16, 17, 40, 50, 1024)) == []


def test_a_count_past_e709_makes_every_partial_inf():
    # the level-0 term of a closed-form series is its count c, delta_0 = 1;
    # at s = 2000 the last term log, ln c - 2000 ln 2 or ln c - 2000, is
    # below 709, so the cut is read at level 0 too
    c = 10 ** 400
    prof = LevelProfile(4, (1, 2, 3, 4, 5), (c,) * 4, (c,) * 4, (c,) * 4)
    for name in ("exp", "harmonic"):
        got = zeta_partials(prof, delta_from_name(name), [1.0, 2000.0],
                            (2, 4)).partials
        assert repr(got) == repr(plain_partials(
            prof, delta_from_name(name), [1.0, 2000.0], (2, 4)))
        assert all(x == math.inf for rows in got.values() for row in rows
                   for x in row)


def test_partials_subnormal_totals():
    profile = oracle_profile("fibonacci")
    got = zeta_partials(profile, delta_from_name("powerlog:1.5,1"),
                        SUBNORMAL_GRID, (4, 8)).partials["full"]
    assert 0.0 < got[0][-1] < 1e-320 and got[-1][-1] == 0.0
    assert oracle_mismatches(profile, "powerlog:1.5,1", SUBNORMAL_GRID,
                             (4, 8)) == []


def test_oracle_catches_a_cut_too_early(monkeypatch):
    profile = oracle_profile("fibonacci")
    monkeypatch.setattr(zeta, "_LOG_TINY", -740.0)
    assert oracle_mismatches(profile, "powerlog:1.5,1", SUBNORMAL_GRID,
                             (4, 8)) == list(zeta.VARIANTS)


def test_partials_term_logs_that_fall_and_rise():
    # ln(2 * 2^n) - 300 ln(n + 1) falls below -746 near n = 13 and climbs
    # back past it near n = 2400, so the underflow cut must bound every
    # later coefficient, not the current one
    profile = level_profile(FullShift(2), 4096)
    rows = zeta_partials(profile, DeltaSequence.harmonic(), [300.0],
                         (512, 4096)).partials["full"]
    assert 1.0 < rows[0][0] < rows[0][1] < math.inf
    assert oracle_mismatches(profile, "harmonic", [300.0], (512, 4096)) == []


def test_partials_negative_s_with_delta_above_one():
    # s log delta_n rises with n when s < 0, so no underflow cut applies:
    # the first six terms are 0.0, the last two are not
    values = [10.0 ** e for e in (300, 299, 298, 297, 296, 295, 100, 0)]
    profile = oracle_profile("fibonacci")
    got = zeta_partials(profile, DeltaSequence.table(values), [-2.0],
                        (4, 8)).partials["full"]
    want = plain_partials(profile, DeltaSequence.table(values), [-2.0],
                          (4, 8))["full"]
    assert repr(got) == repr(want) and got[0] == (0.0, 2.0)


def test_partials_series_differing_at_one_level():
    # full and low agree but for the last level, so they are two series;
    # level 1 has no term in any of the three
    N = 4
    prof = LevelProfile(N, (1, 2, 2, 3, 4), (1, 0, 1, 1), (2, 0, 2, 6),
                        (1, 0, 1, 1))
    got = zeta_partials(prof, DeltaSequence.harmonic(), [1.0, 2.0],
                        (2, 4)).partials
    want = plain_partials(prof, DeltaSequence.harmonic(), [1.0, 2.0], (2, 4))
    assert repr(got) == repr(want) and got["full"] != got["low"]


@st.composite
def closed_form_runs(draw):
    """A source (full:k, a Sturmian spec, or a profile of constant count
    tuples), a delta of every family by name and factory, a schedule up to
    2^16 and an s grid with negative, zero, non-finite and 300-800 values."""
    top = 2 ** draw(st.sampled_from(range(17)))
    N = top - draw(st.integers(0, top // 2))
    kind = draw(st.sampled_from(("full", "sturmian", "constant")))
    if kind == "full":
        source = level_profile(FullShift(draw(st.integers(1, 4))), N)
    elif kind == "sturmian":
        source = level_profile(SturmianCF(
            (draw(st.integers(0, 3)), draw(st.integers(1, 4))),
            draw(st.sampled_from((("linear",), ("constant", 2))))), N)
    else:
        g, e, b = (draw(st.integers(0, 5)) for _ in range(3))
        source = LevelProfile(N, tuple(range(1, N + 2)), (g,) * N, (e,) * N,
                              (b,) * N)
    family = draw(st.sampled_from(
        ("exp", "harmonic", "powerlog0", "powerlog", "geom", "table")))
    if family == "powerlog0":
        name = "powerlog:%r,0" % draw(st.floats(0.25, 3.0))
    elif family == "powerlog":
        name = "powerlog:%r,%r" % (draw(st.floats(0.25, 3.0)),
                                   draw(st.floats(0.01, 2.0)))
    elif family == "geom":
        name = "geom:%r" % draw(st.floats(0.01, 0.99))
    else:
        name = family
    if family == "table":
        top = draw(st.floats(-3.0, 900.0))
        step = draw(st.floats(0.01, 1.0)) * (top + 1000.0) / N
        values = [2.0 ** (top - n * step) for n in range(N)]
        delta = lambda: DeltaSequence.table(values)  # noqa: E731
    else:
        delta = lambda: delta_from_name(name)  # noqa: E731
    inner = draw(st.lists(st.integers(1, N), max_size=3, unique=True))
    schedule = tuple(sorted({draw(st.sampled_from((0, 1))), *inner, N}))
    s_grid = draw(st.lists(st.one_of(S_VALUES, st.sampled_from((0.0, -0.0))),
                           min_size=1, max_size=8))
    return source, name, delta, s_grid, schedule


@settings(max_examples=200, deadline=None, derandomize=True)
@given(closed_form_runs())
def test_closed_form_partials_equal_their_oracles(run):
    # a closed-form row lies within 1e-14 of the fsum of its exact terms
    # and is inf exactly where the plain sum is; any other row, and every
    # row of a non-finite s, is the plain sum by repr
    source, name, delta, s_grid, schedule = run
    got = zeta_partials(source, delta(), s_grid, schedule).partials
    loop = plain_partials(source, delta(), s_grid, schedule)
    exact = fsum_partials(source, name, s_grid, schedule)
    closed = closed_form_rows(source, name, s_grid, schedule)
    for v in zeta.VARIANTS:
        for s, g, want, e, is_closed in zip(s_grid, got[v], loop[v],
                                            exact[v] or repeat(None),
                                            closed[v]):
            assert row_mismatch(g, want, e if is_closed else None) is None, (
                v, s, row_mismatch(g, want, e if is_closed else None))


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
