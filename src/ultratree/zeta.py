"""Zeta partial sums, abscissa estimates and complexity exponents.

The three series share the shape  sum over levels n of  c(n) * delta_n^s:
the full series weights level n by the oriented horizontal edge count
sum a(v)(a(v)+1), the lower series by 2 g(n), and the restricted series by
twice the number of branching vertices.  Terms are evaluated in log space
because the level coefficients of a full shift outgrow floats long before
the requested depths.
"""

import math
from dataclasses import dataclass, field

# level_profile lives in .words; bench/ calls and traces it on this module
from .words import LevelProfile, level_profile


class InsufficientDepthError(ValueError):
    pass


# ---------------------------------------------------------------------------
# partial sums


VARIANTS = ("full", "low", "pb")

_LOG_HUGE = 709.0  # exp overflows just above this


def _series_coefficients(profile, variant):
    if variant == "full":
        return profile.edge_weight
    if variant == "low":
        return tuple(2 * x for x in profile.g)
    if variant == "pb":
        return tuple(2 * x for x in profile.branching)
    raise ValueError("unknown zeta variant %r" % variant)


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
    increasing list of truncation depths.
    """
    schedule = tuple(schedule)
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must increase")
    depth = schedule[-1]
    if isinstance(source, LevelProfile):
        profile = source
    else:
        profile = level_profile(source, depth)
    if profile.depth < depth:
        raise InsufficientDepthError(
            "profile depth %d below schedule %d" % (profile.depth, depth))

    log_delta = [delta.log(n) for n in range(depth)]
    out = {}
    for variant in VARIANTS:
        coeff = _series_coefficients(profile, variant)
        log_coeff = [math.log(c) if c > 0 else None for c in coeff[:depth]]
        rows = []
        for s in s_grid:
            partials = []
            total = 0.0
            pos = 0
            for stop in schedule:
                while pos < stop:
                    lc = log_coeff[pos]
                    if lc is not None:
                        lt = lc + s * log_delta[pos]
                        total += math.inf if lt > _LOG_HUGE else math.exp(lt)
                    pos += 1
                partials.append(total)
            rows.append(tuple(partials))
        out[variant] = tuple(rows)
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


def exponent_estimates(P, g, N):
    """Window estimates of the complexity exponents.

    beta bounds are min/max of ln P(n)/ln n over the window [N/2, N]; the
    eta bounds use the same window on 1 + ln g(n)/ln n, reading g(n) as
    n^(eta-1).  Exact asymptotics are out of reach of any finite window, so
    the report carries the window and a tolerance for chain checks.
    """
    if N < 16:
        raise InsufficientDepthError("need N >= 16 for window estimates")
    if len(P) <= N:
        raise InsufficientDepthError("P must reach index N")
    lo = N // 2
    beta_vals = [math.log(P[n]) / math.log(n) for n in range(lo, N + 1)]
    g_window = range(lo, min(N, len(g)))
    eta_vals = [1.0 + math.log(max(g[n], 1)) / math.log(n) for n in g_window]
    half = math.log(P[lo]) / math.log(lo)
    full = math.log(P[N]) / math.log(N)
    super_poly = full > 1.5 * half and full > 3.0
    return ExponentReport(min(beta_vals), max(beta_vals),
                          min(eta_vals), max(eta_vals),
                          super_poly, (lo, N))
