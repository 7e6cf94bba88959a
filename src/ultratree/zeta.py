"""Zeta partial sums, abscissa estimates and complexity exponents.

The three series share the shape  sum over levels n of  c(n) * delta_n^s:
the full series weights level n by the oriented horizontal edge count
sum a(v)(a(v)+1), the lower series by 2 g(n), and the restricted series by
twice the number of branching vertices.  Terms are evaluated in log space
because the level coefficients of a full shift outgrow floats long before
the requested depths.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, repeat

from .tree import build_tree, spec_tree
# level_profile lives in .words; bench/ calls and traces it on this module
from .words import (LanguageTable, LevelProfile, ScaledPowers, leaf_count,
                    level_profile)


class InsufficientDepthError(ValueError):
    pass


# ---------------------------------------------------------------------------
# partial sums


VARIANTS = ("full", "low", "pb")

_LOG_HUGE = 709.0  # exp overflows just above this
_LOG_TINY = -746.0  # exp of anything below this is exactly 0.0


def _series_coefficients(profile, variant, depth):
    """c(n) for n < depth.  A full shift's doubled counts are ScaledPowers
    with twice the scale, so they are never multiplied out level by level,
    and equal series are found without reading them."""
    if variant == "full":
        return profile.edge_weight[:depth]
    counts = (profile.g if variant == "low" else profile.branching)[:depth]
    if isinstance(counts, ScaledPowers):
        return ScaledPowers(2 * counts.scale, counts.k, counts.stop,
                            counts.start)
    return tuple(2 * x for x in counts)


def _log_coefficients(coeff):
    """log c(n), None where c(n) = 0."""
    return tuple(math.log(c) if c > 0 else None for c in coeff)


def _constant_log(coeff):
    """log c if every coefficient is the same c > 0, else None: read from
    a ScaledPowers with k = 1 without reading its terms, and from any other
    sequence by one count of its first term."""
    if isinstance(coeff, ScaledPowers):
        c = coeff.scale if coeff.k == 1 else 0
    else:
        c = coeff[0] if coeff and coeff.count(coeff[0]) == len(coeff) else 0
    return math.log(c) if c > 0 else None


def _series_rows(coeff, log_delta, s_grid, schedule):
    """One row of partial sums per exponent s for the series with these
    coefficients, adding its terms exp(log c_n + s log delta_n) over the
    levels with c_n > 0 in level order, one loop per schedule chunk of
    total += term (never sum(), whose compensated summation would give
    other bits).  Only a row that can overflow lists a chunk's term logs,
    to read their max before it sums them.  A series whose coefficients
    all equal one c > 0 (see _constant_log) takes the log lc of c alone,
    its suffix maxima are lc, and it sums straight over the delta logs,
    with no per-level list.

    Only terms that can still change a partial are evaluated, so every
    partial equals the plain level-by-level sum.  A term whose log exceeds
    _LOG_HUGE counts as inf, and inf plus a non-negative term stays inf, so
    that partial and every later one is inf.  For finite s this is read
    first from the one term at level schedule[0] - 1, before any log
    coefficient is taken; past that point a row looks for it only if the
    largest log coefficient plus the largest s log delta_n passes
    _LOG_HUGE.  For finite s > 0, since the logs of delta strictly
    decrease, bound[k] = sufmax[k] + s log delta_k never increases with k
    and is at least the log of every term from k on, also after rounding;
    from the first k where it falls below _LOG_TINY every term is exactly
    0.0 and no partial changes, and no term past _LOG_HUGE is cut.
    """
    lc = _constant_log(coeff)
    # a schedule from 0 has no level in its first partial
    first = schedule[0] - 1
    c, ld_first = (coeff[first], log_delta[first]) if first >= 0 else (0, 0)
    lc_first = math.log(c) if c > 0 else -math.inf
    lds = None
    exp = math.exp
    rows = []
    for s in s_grid:
        # a non-finite s takes every term, as the plain sum does
        finite = math.isfinite(s)
        if finite and lc_first + s * ld_first > _LOG_HUGE:
            rows.append((math.inf,) * len(schedule))
            continue
        if lds is None and lc is not None:
            lds, ends, sufmax = log_delta, schedule, lambda k: lc
        elif lds is None:
            log_coeff = _log_coefficients(coeff)
            levels = [n for n, x in enumerate(log_coeff) if x is not None]
            lcs = [log_coeff[n] for n in levels]
            lds = [log_delta[n] for n in levels]
            ends = [bisect_left(levels, stop) for stop in schedule]
            sufmax = list(accumulate(reversed(lcs), max))[::-1].__getitem__
        live = len(lds)
        can_overflow = finite and live > 0 and (
            sufmax(0) + s * lds[0 if s > 0 else -1] > _LOG_HUGE)
        if finite and s > 0:
            live = bisect_left(range(live), True, key=lambda k: (
                sufmax(k) + s * lds[k] < _LOG_TINY))
        row = []
        total = 0.0
        k = 0
        for end in ends:
            end = min(end, live)
            if k < end:
                if can_overflow:
                    lts = [x + s * ld for x, ld in zip(
                        repeat(lc) if lc is not None else lcs[k:end],
                        lds[k:end])]
                    if max(lts) > _LOG_HUGE:
                        row += [math.inf] * (len(ends) - len(row))
                        break
                    for lt in lts:
                        total += exp(lt)
                elif lc is not None:
                    for ld in lds[k:end]:
                        total += exp(lc + s * ld)
                else:
                    for x, ld in zip(lcs[k:end], lds[k:end]):
                        total += exp(x + s * ld)
                k = end
            row.append(total)
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class ZetaPartials:
    """Partial sums of the three series on an exponent grid and a depth
    schedule.  partials[variant][i][j] is the value at s_grid[i] truncated
    at schedule[j] levels; a float inf records overflow of the sum."""

    s_grid: tuple
    schedule: tuple
    partials: dict = field(compare=False)
    profile: LevelProfile = field(default=None, compare=False)


def zeta_partials(source, delta, s_grid, schedule):
    """Evaluate the zeta partial sums.

    source may be a spec, table, or LevelProfile; schedule is the
    increasing list of truncation depths.  A table, or the sorted leaves
    of a spec with no closed form, must pass build_tree's check; a
    LevelProfile is taken as given.  Variants with equal coefficients are
    found before any log is taken and share one pass: every Sturmian spec
    has c(n) = 2 in all three, a full binary shift 2 * 2^n.  A constant
    series takes the log of its one coefficient; any other takes its
    coefficient logs only if some s does not overflow at the first
    schedule point, read from that one coefficient.
    """
    schedule = tuple(schedule)
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must increase")
    depth = schedule[-1]
    if isinstance(source, LevelProfile):
        profile = source
    else:
        if isinstance(source, LanguageTable):
            source = build_tree(source)
        elif leaf_count(source, depth) is None:  # no closed form
            source = spec_tree(source, depth)
        profile = level_profile(source, depth)
    if profile.depth < depth:
        raise InsufficientDepthError(
            "profile depth %d below schedule %d" % (profile.depth, depth))

    log_delta = delta.logs(depth)
    out = {}
    summed = []  # (coefficients, rows), one entry per distinct series
    for variant in VARIANTS:
        coeff = _series_coefficients(profile, variant, depth)
        rows = next((r for c, r in summed if c == coeff), None)
        if rows is None:
            rows = _series_rows(coeff, log_delta, s_grid, schedule)
            summed.append((coeff, rows))
        out[variant] = rows
    return ZetaPartials(tuple(float(s) for s in s_grid), schedule, out,
                        profile)


# ---------------------------------------------------------------------------
# abscissa estimation
#
# Convergence of a series is not decidable from finitely many terms; the
# estimator classifies each grid exponent from the ratio of the last two
# doubling increments and reports a bracket, never a bare point value.
# The thresholds below put the p-series boundary case (increment ratio
# 2^(1-s), about 1 at s = 1) on the divergent side while calling ratios
# safely under 2^(-0.15) convergent.

CONVERGENT_RATIO = 0.9
DIVERGENT_RATIO = 0.98


@dataclass(frozen=True)
class AbscissaReport:
    variant: str
    classifications: tuple  # (s, "convergent" | "divergent" | "undecided")
    bracket: tuple          # (largest divergent s, smallest convergent s)
    estimate: float         # midpoint, or None
    applicable: bool = True


def _classify(partials):
    if math.isinf(partials[-1]):
        return "divergent"
    incs = [b - a for a, b in zip(partials, partials[1:])]
    if len(incs) < 2:
        return "undecided"
    prev, last = incs[-2], incs[-1]
    if last == 0.0 and prev == 0.0:
        return "convergent"
    if prev == 0.0:
        return "divergent"
    ratio = last / prev
    if ratio <= CONVERGENT_RATIO:
        return "convergent"
    if ratio >= DIVERGENT_RATIO:
        return "divergent"
    return "undecided"


def abscissa_estimate(partials):
    """Per-variant abscissa brackets from a doubling-schedule ZetaPartials."""
    if len(partials.schedule) < 3:
        raise ValueError("need at least three schedule points")
    reports = {}
    for variant, rows in partials.partials.items():
        if all(row[-1] == 0.0 for row in rows):
            reports[variant] = AbscissaReport(variant, (), (None, None),
                                              None, applicable=False)
            continue
        cls = []
        for s, row in zip(partials.s_grid, rows):
            cls.append((s, _classify(row)))
        div = [s for s, c in cls if c == "divergent"]
        conv = [s for s, c in cls if c == "convergent"]
        lo = max(div) if div else None
        hi = min(conv) if conv else None
        mid = None
        if lo is not None and hi is not None and lo <= hi:
            mid = 0.5 * (lo + hi)
        reports[variant] = AbscissaReport(variant, tuple(cls), (lo, hi), mid)
    return reports


# ---------------------------------------------------------------------------
# complexity and eta exponents


@dataclass(frozen=True)
class ExponentReport:
    beta_lower: float
    beta_upper: float
    eta_lower: float
    eta_upper: float
    super_polynomial: bool
    window: tuple
    tolerance: float = 0.15


# bounds with ample room the distance 2^-47 (f + 1) of the window expression
# and of its float estimate from the real f (see _window_ratios)
_ESTIMATE_ERROR = 1e-12


def _window_ratios(seq, lo, hi, ratio, offset):
    """ratio(n, seq[n]) for lo <= n < hi in order, where ratio is the window
    expression offset + ln seq[n] / ln n.  For a ScaledPowers seq of terms
    >= 1 that rises at both ends of the window (below), only the two ends
    are evaluated: they hold the least and the largest value, and no other
    big integer is made.  A ScaledPowers whose terms are all 1 (a Sturmian
    g, a full:1 P) gives offset + 0.0 at every level, so its one value is
    returned.  Any other window is evaluated level by level.

    The values are those of f(n) = offset + (ln scale + (start + n) ln k)
    / ln n, whose derivative has the sign of ln k (ln n - 1) - (ln scale +
    start ln k) / n, increasing in n: f falls and then rises.  math.log of
    an integer is within 2^-50 (ln x + 1) of its true log, so the window
    expression R(n) and the float estimate E(n) are both within D =
    _ESTIMATE_ERROR (T + 1) of f, T the larger end estimate (f's window
    maximum is at an end).  If E(lo + 1) - E(lo) > 4D, then f(lo + 1) >
    f(lo) + 2D, so f rises from lo on and R(n) > f(lo) + D >= R(lo) for
    n > lo; if also E(hi - 1) - E(hi - 2) > 4D, then likewise R(hi - 1) >
    R(n) for n < hi - 1."""
    if (isinstance(seq, ScaledPowers) and seq.scale >= 1 and seq.k >= 1
            and lo < hi):
        if seq.scale == seq.k == 1:
            return [ratio(lo, 1)]
        lk = math.log(seq.k)
        la = math.log(seq.scale) + seq.start * lk

        def est(n):
            return offset + (la + lk * n) / math.log(n)

        margin = 4 * _ESTIMATE_ERROR * (max(est(lo), est(hi - 1)) + 1.0)
        if (est(lo + 1) - est(lo) > margin
                and est(hi - 1) - est(hi - 2) > margin):
            return [ratio(lo, seq[lo]), ratio(hi - 1, seq[hi - 1])]
    return [ratio(n, x) for n, x in zip(range(lo, hi), seq[lo:hi])]


def _beta(n, p):
    return math.log(p) / math.log(n)


def _eta(n, x):
    return 1.0 + math.log(max(x, 1)) / math.log(n)


def exponent_estimates(P, g, N):
    """Window estimates of the complexity exponents.

    beta bounds are min/max of ln P(n)/ln n over the window [N/2, N]; the
    eta bounds are min/max of 1 + ln g(n)/ln n over [N/2, N), reading g(n)
    as n^(eta-1).  Exact asymptotics are out of reach of any finite window,
    so the report carries the window and a tolerance for chain checks.  A
    full shift's counts are ScaledPowers, whose window extremes are shown
    by float estimates to lie at the two window ends, and are evaluated
    there by the same expressions (see _window_ratios), so the report is
    the one the whole window gives and no other big integer is made.  A
    Sturmian spec's g is ScaledPowers too, all 1, and its window is one
    level.
    """
    if N < 16:
        raise InsufficientDepthError("need N >= 16 for window estimates")
    if len(P) <= N:
        raise InsufficientDepthError("P must reach index N")
    lo = N // 2
    beta_vals = _window_ratios(P, lo, N + 1, _beta, 0.0)
    eta_vals = _window_ratios(g, lo, min(N, len(g)), _eta, 1.0)
    half, full = beta_vals[0], beta_vals[-1]
    super_poly = full > 1.5 * half and full > 3.0
    return ExponentReport(min(beta_vals), max(beta_vals),
                          min(eta_vals), max(eta_vals),
                          super_poly, (lo, N))
