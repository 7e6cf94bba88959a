"""Checkers for the benchmark's outputs, with a self-test.

Each checker compares a program output with a reference value or with a
property the method must have, and raises CheckFailure when it does not
hold.  The tolerances are set from the arithmetic: exact Fractions are
compared exactly, float sums of up to 16k terms within 1e-10 relative.
self_test() feeds every checker a perturbed value and confirms that it is
rejected, so a checker that accepts everything cannot go unnoticed.
"""

import math
from fractions import Fraction


class CheckFailure(AssertionError):
    pass


def fail(label, detail):
    raise CheckFailure("%s: %s" % (label, detail))


def equal(label, got, want):
    if got != want:
        fail(label, "got %r, want %r" % (got, want))


def sequence_equal(label, got, want):
    got, want = list(got), list(want)
    if len(got) != len(want):
        fail(label, "length %d, want %d" % (len(got), len(want)))
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            fail(label, "entry %d is %r, want %r" % (i, g, w))


def close(label, got, want, rel):
    if not math.isfinite(got) or abs(got - want) > rel * abs(want):
        fail(label, "got %r, want %r within %g relative" % (got, want, rel))


def at_most(label, value, bound):
    if not value <= bound:
        fail(label, "%r exceeds %r" % (value, bound))


def ordered(label, *values):
    """values[0] <= values[1] <= ..."""
    for a, b in zip(values, values[1:]):
        if not a <= b:
            fail(label, "order broken: %r > %r" % (a, b))


def bracket_contains(label, bracket, point):
    lo, hi = bracket
    if lo is None or hi is None or not lo <= point <= hi:
        fail(label, "bracket %r misses %r" % (bracket, point))


def spectrum_matches(label, got, want):
    """Sorted eigenvalues agree within 1e-10 of the largest magnitude."""
    got, want = sorted(float(x) for x in got), sorted(want)
    if len(got) != len(want):
        fail(label, "%d eigenvalues, want %d" % (len(got), len(want)))
    tol = 1e-10 * max(1.0, max(abs(x) for x in want))
    for i, (g, w) in enumerate(zip(got, want)):
        if abs(g - w) > tol:
            fail(label, "eigenvalue %d is %r, want %r" % (i, g, w))


def kernel_dimension(label, eigenvalues, want=1):
    """Eigenvalues within 1e-12 of the largest magnitude count as zero."""
    ev = [float(x) for x in eigenvalues]
    tol = 1e-12 * max(abs(x) for x in ev)
    dim = sum(1 for x in ev if abs(x) <= tol)
    if dim != want:
        fail(label, "kernel dimension %d, want %d" % (dim, want))


def trace_matches(label, exact_trace, eigenvalues):
    close(label, math.fsum(float(x) for x in eigenvalues),
          float(exact_trace), 1e-9)


def rows_conserve(label, rows):
    """Every row of the operator sums to exactly 0."""
    for i, r in enumerate(rows):
        if sum(r) != 0:
            fail(label, "row %d sums to %r" % (i, sum(r)))


def self_adjoint(label, rows, mu):
    """mu_i M_ij == mu_j M_ji exactly."""
    size = len(rows)
    for i in range(size):
        ri, mi = rows[i], mu[i]
        for j in range(i + 1, size):
            if mi * ri[j] != mu[j] * rows[j][i]:
                fail(label, "defect at (%d, %d)" % (i, j))


def form_matches(label, q, rows, mu, f):
    """Q(f, f) == sum_i mu_i f_i (M f)_i exactly."""
    want = sum(mu[i] * f[i] * sum(m * x for m, x in zip(rows[i], f))
               for i in range(len(rows)))
    if q != want:
        fail(label, "Q(f, f) = %r, sum mu f Mf = %r" % (q, want))


def byte_identical(label, a, b):
    if a != b:
        fail(label, "outputs differ")


# ---------------------------------------------------------------------------


def _rejects(checker, *args):
    try:
        checker(*args)
    except CheckFailure:
        return True
    return False


def self_test():
    """Feed every checker one good and one perturbed input; return the
    list of checkers that misjudged (empty when all are sound)."""
    P = [1, 2, 4, 6, 10, 12, 16]
    bad_P = list(P)
    bad_P[4] += 1
    eig = [0.0, 4.0, 4.0, 10.0, 766.0]
    bad_eig = list(eig)
    bad_eig[2] += 1e-6
    part = 7.123456789
    third = Fraction(1, 3)
    rows = ((third, -third), (-2 * third, 2 * third))
    mu = (Fraction(2, 3), Fraction(1, 3))
    bad_rows = ((third, -third + Fraction(1, 10 ** 12)),
                (-2 * third, 2 * third))
    f = (Fraction(1), Fraction(-2))
    q = sum(mu[i] * f[i] * sum(m * x for m, x in zip(rows[i], f))
            for i in range(2))
    cases = [
        ("sequence_equal", sequence_equal, ("P", P, P), ("P", bad_P, P)),
        ("equal", equal, ("l_hat_R", 0.6, 0.6), ("l_hat_R", 0.6 + 1e-16,
                                                 0.6)),
        ("close", close, ("zeta", part, part, 1e-10),
         ("zeta", part * (1 + 1e-9), part, 1e-10)),
        ("at_most", at_most, ("C", 0.5, 1 / (math.e - 1)),
         ("C", 0.59, 1 / (math.e - 1))),
        ("ordered", ordered, ("Z", 1.0, 2.0, 2.0), ("Z", 1.0, 2.5, 2.0)),
        ("bracket_contains", bracket_contains, ("abscissa", (0.95, 1.05),
                                                1.0),
         ("abscissa", (1.05, 1.1), 1.0)),
        ("spectrum_matches", spectrum_matches, ("spectrum", eig, eig),
         ("spectrum", bad_eig, eig)),
        ("kernel_dimension", kernel_dimension, ("kernel", eig),
         ("kernel", [0.0, 1e-14] + eig[1:])),
        ("trace_matches", trace_matches, ("trace", sum(eig), eig),
         ("trace", sum(eig) * (1 + 1e-8), eig)),
        ("rows_conserve", rows_conserve, ("rows", rows), ("rows", bad_rows)),
        ("self_adjoint", self_adjoint, ("adjoint", rows, mu),
         ("adjoint", bad_rows, mu)),
        ("form_matches", form_matches, ("form", q, rows, mu, f),
         ("form", q + Fraction(1, 10 ** 15), rows, mu, f)),
        ("byte_identical", byte_identical, ("bytes", b"x,1\n", b"x,1\n"),
         ("bytes", b"x,1\n", b"x,2\n")),
    ]
    wrong = []
    for name, checker, good, bad in cases:
        if _rejects(checker, *good) or not _rejects(checker, *bad):
            wrong.append(name)
    return wrong
