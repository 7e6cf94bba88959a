"""Expected values for the benchmark checks, computed without ultratree.

Every function here restates a closed form or a direct sum from its
mathematical definition, so a check that compares the program against it
does not compare the program against itself.  Only the standard library
and numpy are used; numpy is imported where it is needed, so that
importing this module does not load it ahead of the import of ultratree
that the benchmark times.
"""

import math
from math import isqrt

# ---------------------------------------------------------------------------
# delta families, restated from their definitions: log(delta_n)


def delta_logs(name, N):
    """log(delta_n) for n < N for exp, harmonic, geom:q and powerlog:a,b."""
    if name == "exp":
        return [-float(n) for n in range(N)]
    if name == "harmonic":
        return [-math.log(n + 1) for n in range(N)]
    if name.startswith("geom:"):
        lq = math.log(float(name.split(":", 1)[1]))
        return [n * lq for n in range(N)]
    if name.startswith("powerlog:"):
        a, b = (float(x) for x in name.split(":", 1)[1].split(","))
        # index shift that makes ln^b(n+2)/(n+1)^a decrease from n = 0
        shift = max(0, math.ceil(math.exp(b / a)) - 2)
        return [b * math.log(math.log(n + 2 + shift))
                - a * math.log(n + 1 + shift) for n in range(N)]
    raise ValueError("no reference for delta %r" % name)


# ---------------------------------------------------------------------------
# languages


def thue_morse_complexity(n):
    """P(n) of the Thue-Morse language (Brlek 1989): for n >= 3 write
    n = 2^r + q + 1 with 0 < q <= 2^r; then P(n) = 6*2^(r-1) + 4q when
    q <= 2^(r-1) and 8*2^(r-1) + 2q otherwise."""
    if n < 3:
        return (1, 2, 4)[n]
    r = (n - 2).bit_length() - 1
    q = n - 1 - 2 ** r
    if 2 * q <= 2 ** r:
        return 3 * 2 ** r + 4 * q
    return 4 * 2 ** r + 2 * q


def fibonacci_characteristic(length):
    """Prefix of the characteristic word c(n) = floor((n+1)a) - floor(na),
    n >= 1, with slope a = (3 - sqrt 5)/2; letter a for 0 and b for 1.

    floor(n a) is exact in integers: n sqrt 5 lies strictly between
    s = isqrt(5 n^2) and s + 1, so floor((3n - n sqrt 5)/2) = (3n - s - 1)//2.
    """
    def fl(n):
        return (3 * n - isqrt(5 * n * n) - 1) // 2
    return "".join("ab"[fl(n + 1) - fl(n)] for n in range(1, length + 1))


def sturmian_right_special(char_word, n):
    """The one right-special word of length n of a Sturmian language: the
    reversal of the length-n prefix of its characteristic word."""
    return char_word[:n][::-1]


def failure_array(w):
    """b[i] = length of the longest proper border of w[:i]."""
    b = [0] * (len(w) + 1)
    k = 0
    for i in range(1, len(w)):
        while k and w[i] != w[k]:
            k = b[k]
        if w[i] == w[k]:
            k += 1
        b[i + 1] = k
    return b


def fibonacci_l_hat_r(N):
    """l_hat_R at table depth N: the least (n - b[n])/b[n] over the failure
    array of the characteristic word, for right-special lengths 2..N-1."""
    b = failure_array(fibonacci_characteristic(N))
    return min((n - b[n]) / b[n] for n in range(2, N) if b[n] >= 1)


# ---------------------------------------------------------------------------
# order diagnostics on full shifts (every node branches)


def full_shift_c(logs, N):
    """C(N) = max over m of sum_{n=m+1}^{N-1} delta_n/delta_m, as a direct
    double sum (numpy's pairwise summation keeps it accurate)."""
    import numpy as np
    lg = np.asarray(logs[:N], dtype=float)
    return max(float(np.exp(lg[m + 1:] - lg[m]).sum()) for m in range(N - 1))


def full_shift_w(logs, N):
    """W(N) = sum_{n=1}^{N-1} delta_n."""
    return math.fsum(math.exp(x) for x in logs[1:N])


EXP_C_BOUND = 1.0 / (math.e - 1.0)
"""Under delta_n = e^-n every chain sum is below sum_j e^-j = 1/(e-1)."""


# ---------------------------------------------------------------------------
# zeta series


def full2_geom_full_series(q, s, N):
    """sum_{n<N} 2^(n+1) q^(ns) for full:2 under geom:q, in closed form
    2 (r^N - 1)/(r - 1) with r = 2 q^s, written with expm1 so that r near
    1 stays accurate."""
    lr = math.log(2.0) + s * math.log(q)
    if lr == 0.0:
        return 2.0 * N
    return 2.0 * math.expm1(N * lr) / math.expm1(lr)


def sturmian_low_series(logs, s, N):
    """sum_{n<N} 2 delta_n^s for a Sturmian language (g(n) = 1)."""
    return math.fsum(2.0 * math.exp(s * x) for x in logs[:N])


# ---------------------------------------------------------------------------
# spectra


def uniform_full_shift_spectrum(k, N):
    """Sorted spectrum of the averaged operator on full:k at depth N with
    the uniform measure and every level weight equal to 1:
    {0} and (k+1)k^m - k with multiplicity (k-1)k^(m-1), m = 1..N."""
    out = [0.0]
    for m in range(1, N + 1):
        out += [float((k + 1) * k ** m - k)] * ((k - 1) * k ** (m - 1))
    return sorted(out)
