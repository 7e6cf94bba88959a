"""Zeta partial sums, abscissa estimates and complexity exponents.

The three series share the shape  sum over levels n of  c(n) * delta_n^s:
the full series weights level n by the oriented horizontal edge count
sum a(v)(a(v)+1), the lower series by 2 g(n), and the restricted series by
twice the number of branching vertices.  Where both factors have a closed
form the partials are taken in closed form, in O(1) per exponent and
schedule point whatever the depth: coefficients c k^n (a constant c has
k = 1) under a delta e^(n lq) (exp, geom:q) are a geometric sum, and a
constant c under delta (n + 1)^-a (harmonic, powerlog:a,0) an
Euler-Maclaurin sum (see _power_row).  Every other series adds its terms
level by level, in log space because the level coefficients of a full
shift outgrow floats long before the requested depths.  Delta logs are
realized only for a series that is summed level by level.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
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

# Euler-Maclaurin: the first _EM_DIRECT levels are summed term by term,
# the rest by the integral, the end-point half terms and the corrections
# B_2i / (2i)! (f^(2i-1)(b) - f^(2i-1)(M)) for B_2 .. B_12, the last of
# which bounds the remainder; a sum whose bound passes _EM_TOLERANCE of
# it is summed term by term instead (see _power_row)
_EM_DIRECT = 15
# B_2i / (2i)!, i = 1 .. 6
_BERNOULLI = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000)
_EM_TOLERANCE = 2.0 ** -48


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


def _power_logs(c, k, stop):
    """ln(c k^n) for n < stop, as ln c + n ln k: no integer c k^n is
    made."""
    lc, lk = math.log(c), math.log(k)
    return [lc + n * lk for n in range(stop)]


def _powers(coeff):
    """(c, k) if every coefficient is the integer c k^n, n its level, with
    c >= 0 and k >= 1: read from a ScaledPowers by its parameters, and
    from any other sequence, as a constant (k = 1), by one count of its
    first term; else None."""
    if isinstance(coeff, ScaledPowers):
        c, k = coeff.scale * coeff.k ** coeff.start, coeff.k
    elif (coeff and isinstance(coeff[0], int)
          and coeff.count(coeff[0]) == len(coeff)):
        c, k = coeff[0], 1
    else:
        return None
    return (c, k) if c >= 0 and k >= 1 else None


# exact products and sums of floats below 2^500 in magnitude (Dekker,
# Knuth), carried as a float and its remainder: the closed forms need ln r
# and sigma to more than 53 bits where an exponent near 709 multiplies them
_SPLIT = 134217729.0  # 2^27 + 1
_EXACT_BELOW = 2.0 ** 500


def _two_prod(a, b):
    """(p, e): p = fl(a b) and e = a b - p exactly."""
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    t = _SPLIT * b
    bh = t - (t - b)
    return p, ((ah * bh - p) + ah * (b - bh) + (a - ah) * bh) + (a - ah) * (
        b - bh)


def _sum_exact(a, ae, b, be):
    """(a + ae) + (b + be) as a float and its remainder."""
    hi = a + b
    t = hi - a
    lo = (a - (hi - t)) + (b - t) + ae + be
    top = hi + lo
    return top, lo - (top - hi)


def _product(a, b):
    """a b as a float and its remainder, the remainder 0.0 where a factor
    is past _EXACT_BELOW."""
    if abs(a) < _EXACT_BELOW and abs(b) < _EXACT_BELOW:
        return _two_prod(a, b)
    return a * b, 0.0


@lru_cache(maxsize=8)
def _log_exact(k):
    """ln k as a float and its remainder, from 40 significant digits."""
    from decimal import Context, Decimal
    x = Context(prec=40).ln(k)
    hi = float(x)
    return hi, float(x - Decimal(hi))


def _geometric_row(k, lq, s, schedule):
    """sum of r^n for n < N at each schedule point N, r = k e^(s lq), with
    ln r = ln k + s lq carried as a float x and its remainder.  A falling
    or flat sum is expm1(N x) / expm1(x); a rising one is r^(N-1) (1 -
    r^-N) / (1 - r^-1), with the exponent (N - 1) ln r again a float and
    its remainder, so that its rounding, up to 709 * 2^-53, does not reach
    the result.  A sum past the float range is inf, as is every later
    one."""
    x, lo = _sum_exact(*_log_exact(k), *_product(s, lq))
    row = []
    for N in schedule:
        if x < 0.0:
            row.append(math.expm1(N * x) / math.expm1(x))
        elif x == 0.0 or N <= 1:
            row.append(float(N))
        else:
            top, top_lo = _two_prod(float(N - 1), x)
            try:
                row.append(math.exp(top) * (1.0 + top_lo + (N - 1) * lo)
                           * math.expm1(-N * x) / math.expm1(-x))
            except OverflowError:
                break
    return tuple(row) + (math.inf,) * (len(schedule) - len(row))


def _power_row(a, shift, s, schedule):
    """sum of m^-sigma over the first N levels at each schedule point N, m
    = n + 1 + shift, sigma = a s: the first _EM_DIRECT terms one by one
    (math.fsum), the rest from M = shift + 1 + _EM_DIRECT to b = N + shift
    by Euler-Maclaurin

        integral_M^b x^-sigma dx + (M^-sigma + b^-sigma) / 2
          + sum_i B_2i / (2i)! (f^(2i-1)(b) - f^(2i-1)(M)),  i = 1 .. 6,

    f(x) = x^-sigma.  Since f^(12) has one sign on (0, inf), the remainder
    is at most 2 zeta(12) / (2 pi)^12 |f^(11)(b) - f^(11)(M)|, which is
    the i = 6 term: |B_12| / 12! (sigma)_11 |M^(-sigma-11) -
    b^(-sigma-11)|, (sigma)_11 the rising factorial.  For sigma > 0 and M
    = 16 that is at most 3.7e-17 of the sum (near sigma = 1.8).  If it
    passes _EM_TOLERANCE = 2^-48 of the sum (a rising sum, sigma < 0, over
    too few levels for its exponent), the terms are summed one by one.
    sigma is carried as a float and its remainder, x^-sigma = x^-hi (1 -
    lo ln x), and the integral is taken with expm1 where (1 - sigma)
    ln(b / M) is small, as near s = 1.  A sum past the float range is inf,
    as is every later one: a rising sum makes no term past it."""
    hi, lo = _product(a, s)
    u = 1.0 - hi - lo
    first = shift + 1
    M = float(first + _EM_DIRECT)
    # B_2i / (2i)! (sigma)_(2i-1), i = 1 .. 6, for Horner's rule in x^-2
    coeffs, rising = [], hi
    for j, b in enumerate(_BERNOULLI):
        coeffs.append(b * rising)
        rising *= (hi + 2 * j + 1) * (hi + 2 * j + 2)
    coeffs.reverse()

    def f(x):
        return x ** -hi * (1.0 - lo * math.log(x)) if lo else x ** -hi

    def terms(start, stop):
        xs = map(float, range(start, stop))
        return map(f, xs) if lo else map(pow, xs, repeat(-hi))

    def corrections(x, fx):
        """fx sum_i B_2i / (2i)! (sigma)_(2i-1) x^(1-2i), the corrections'
        share at one end, and its last term."""
        if fx == 0.0:
            return 0.0, 0.0
        inv = 1.0 / (x * x)
        fx /= x
        last = fx * (coeffs[0] * inv ** (len(coeffs) - 1))
        share = 0.0
        for c in coeffs[1:]:
            share = share * inv + c
        return fx * share + last, last

    direct, head = [], None
    row = []
    try:
        for N in schedule:
            if N <= _EM_DIRECT:
                direct.extend(terms(first + len(direct), first + N))
                row.append(math.fsum(direct[:N]))
                continue
            if head is None:
                direct.extend(terms(first + len(direct), first + _EM_DIRECT))
                fM = f(M)
                head = math.fsum(direct)
                corr_M, last_M = corrections(M, fM)
            b = float(N + shift)
            fb = f(b)
            L = math.log(b / M)
            if abs(u * L) <= 1.0:
                integral = M * fM * (math.expm1(u * L) / u if u else L)
            else:
                integral = (b * fb - M * fM) / u
            corr_b, last_b = corrections(b, fb)
            try:
                total = math.fsum((head, integral, 0.5 * fM, 0.5 * fb,
                                   corr_M, -corr_b))
            except ValueError:  # inf - inf: pieces past the float range
                total = math.nan
            if not abs(last_M - last_b) <= _EM_TOLERANCE * total:
                total = math.fsum(terms(first, N + first))
            row.append(total)
    except OverflowError:
        pass
    return tuple(row) + (math.inf,) * (len(schedule) - len(row))


def _closed_row(c, lk, s, ld_zero, ld_ends, schedule, sums):
    """The partials c * sums[j] for a closed-form series, inf from the
    first schedule point whose terms include one whose log passes
    _LOG_HUGE, as the level-by-level sum cuts.  The term log ln c + n ln
    k + s log delta_n is monotone in n, so it is read at levels 0 and N -
    1, whose delta logs are ld_zero and ld_ends[j]."""
    lc = math.log(c)
    top = lc + s * ld_zero
    row = []
    for N, ld, total in zip(schedule, ld_ends, sums):
        if N > 0 and max(top, lc + (N - 1) * lk + s * ld) > _LOG_HUGE:
            return tuple(row) + (math.inf,) * (len(schedule) - len(row))
        row.append(c * total if N > 0 else 0.0)
    return tuple(row)


def _series_rows(coeff, delta, s_grid, schedule, free):
    """One row of partial sums per exponent s for the series with these
    coefficients.

    A closed-form row, for finite s, coefficients c k^n (see _powers) and
    a delta with a closed form (DeltaSequence.closed_form), is c times a
    c-free sum: under delta_n = e^(n lq) the geometric sum of r^n, r = k
    e^(s lq) (_geometric_row), and for a constant c (k = 1) under delta_n
    = (n + 1 + shift)^-a the Euler-Maclaurin sum of m^-(a s)
    (_power_row).  The c-free sums of each (k, s) are made once, over the
    schedule, and kept in free for every series of the call, so that Z_pb
    <= Z_low <= Z_full holds in floats as it does for c.  The cut to inf
    is read at the two end levels (_closed_row), and no delta log is
    realized for such a row.  A zero series is 0.0.

    Every other row, and every non-finite s, adds its terms exp(log c_n +
    s log delta_n) over the levels with c_n > 0 in level order, one loop
    per schedule chunk of total += term (never sum(), whose compensated
    summation would give other bits), over the delta logs, realized on the
    first such row.  Coefficients c k^n take their logs as ln c + n ln k,
    so no integer of them is made; a constant takes the one log of c,
    whose suffix maxima are that log, and makes no per-level list; any
    other sequence takes log c_n level by level (_log_coefficients).  Only
    a row that can overflow lists a chunk's term logs, to read their max
    before it sums them.

    Only terms that can still change a partial are evaluated, so every
    partial of such a row equals the plain level-by-level sum.  A term
    whose log exceeds _LOG_HUGE counts as inf, and inf plus a non-negative
    term stays inf, so that partial and every later one is inf.  For
    finite s this is read first from the one term at level schedule[0] -
    1, before any other log coefficient is taken; past that point a row
    looks for it only if the largest log coefficient plus the largest s
    log delta_n passes _LOG_HUGE.  For finite s > 0, since the logs of
    delta strictly decrease, bound[k] = sufmax[k] + s log delta_k never
    increases with k and is at least the log of every term from k on,
    also after rounding; from the first k where it falls below _LOG_TINY
    every term is exactly 0.0 and no partial changes, and no term past
    _LOG_HUGE is cut.
    """
    powers = _powers(coeff)
    if powers is not None and powers[0] == 0:
        return ((0.0,) * len(schedule),) * len(s_grid)
    depth = schedule[-1]
    checked = form = delta.closed_form(depth)
    if powers is None or (form is not None and form[0] == "power"
                          and powers[1] != 1):
        form = None
    if form is not None:
        lk = math.log(powers[1])
        ld_zero = delta.log_at(0)
        ld_ends = [delta.log_at(N - 1) if N > 0 else 0.0 for N in schedule]
    # a schedule from 0 has no level in its first partial
    first = schedule[0] - 1
    log_delta = lds = ld_first = None
    exp = math.exp
    rows = []
    for s in s_grid:
        # a non-finite s takes every term, as the plain sum does
        finite = math.isfinite(s)
        if form is not None and finite:
            sums = free.get((powers[1], s))
            if sums is None:
                sums = free[(powers[1], s)] = (
                    _geometric_row(powers[1], form[1], s, schedule)
                    if form[0] == "ratio"
                    else _power_row(*form[1:], s, schedule))
            rows.append(_closed_row(powers[0], lk, s, ld_zero, ld_ends,
                                    schedule, sums))
            continue
        if ld_first is None and first >= 0:
            if powers is not None:
                lc_first = (math.log(powers[0])
                            + first * math.log(powers[1]))
            else:
                lc_first = (math.log(coeff[first]) if coeff[first] > 0
                            else -math.inf)
            # a family with a closed form is checked by its parameters, so
            # one log is read where every s overflows at the first point
            ld_first = (delta.log_at(first) if checked is not None
                        else delta.logs(depth)[first])
        if first >= 0 and finite and lc_first + s * ld_first > _LOG_HUGE:
            rows.append((math.inf,) * len(schedule))
            continue
        if log_delta is None:
            log_delta = delta.logs(depth)
        if lds is None and powers is not None and powers[1] == 1:
            lc = math.log(powers[0])
            lcs, lds, ends = None, log_delta, schedule
            sufmax = lambda k: lc  # noqa: E731
        elif lds is None:
            if powers is not None:
                lcs = _power_logs(*powers, depth)
                lds, ends = log_delta, schedule
            else:
                log_coeff = _log_coefficients(coeff)
                levels = [n for n, x in enumerate(log_coeff)
                          if x is not None]
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
                        repeat(lc) if lcs is None else lcs[k:end],
                        lds[k:end])]
                    if max(lts) > _LOG_HUGE:
                        row += [math.inf] * (len(ends) - len(row))
                        break
                    for lt in lts:
                        total += exp(lt)
                elif lcs is None:
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
    has c(n) = 2 in all three, a full binary shift 2 * 2^n.  Series of the
    form c k^n with one k share their c-free closed-form sums (see
    _series_rows); the delta logs are realized only for a series summed
    level by level.
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

    out = {}
    summed = []  # (coefficients, rows), one entry per distinct series
    free = {}  # (k, s) -> N -> c-free closed-form sum
    for variant in VARIANTS:
        coeff = _series_coefficients(profile, variant, depth)
        rows = next((r for c, r in summed if c == coeff), None)
        if rows is None:
            rows = _series_rows(coeff, delta, s_grid, schedule, free)
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
