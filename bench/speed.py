"""Machine-speed calibration.

The machine this benchmark was built on is shared: the same interpreter
loop runs at speeds up to 1.7x apart within a minute, in phases of several
seconds.  Raw wall times therefore differ between runs by more than any
bound worth setting.  Each timed operation is bracketed by a calibration
of its sort, and its time is scaled by the calibration's nominal time over
its measured time: seconds at the speed at which the calibration takes
its nominal time.  Raw and scaled times agree when the machine runs at
that speed.

Two sorts:

- in-process operations: a fixed mix of interpreter work like the
  program's own (string-keyed dicts, sorting, Fraction arithmetic,
  integer loops);
- operations that start fresh interpreters: a fresh interpreter that
  imports numpy.  Process start-up and imports follow the machine's phases
  differently from a warm interpreter loop; scaling them by the in-process
  calibration widened their spread instead of narrowing it.
"""

import subprocess
import sys
from fractions import Fraction
from time import perf_counter

NOMINAL = 0.025
"""Seconds one in-process calibration takes at the reference speed (the
median on a quiet phase of the machine described in bench/README.md)."""

SPAWN_NOMINAL = 0.18
"""Seconds one fresh-interpreter calibration takes at the reference speed
(its median on the same machine)."""


def _work():
    t0 = perf_counter()
    d = {}
    for i in range(24000):
        d["w%d" % i] = i
    order = sorted(d, key=lambda k: d[k] % 977)
    s = Fraction(0)
    for i in range(1, 320):
        s += Fraction(i, i * i + 1)
    x = 0
    for j in range(160000):
        x += j
    took = perf_counter() - t0
    if not (order and s and x):
        raise AssertionError("calibration work was skipped")
    return took


def _spawn():
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return perf_counter() - t0


def calibrate(fresh=False):
    """How much slower than the reference speed the machine runs now for
    this sort of operation (1.0 at the reference speed)."""
    if fresh:
        return _spawn() / SPAWN_NOMINAL
    return _work() / NOMINAL


def factor(before, after):
    """Scale for an operation timed between two calibrations."""
    return 2.0 / (before + after)
