"""Depth probes: how deep a CLI command gets within a wall-time budget.

    python3 bench/probes.py

Run from the root of a checkout.  Each probe runs the command in a fresh
interpreter at growing depths (doubling, then bisection), killing a run
that exceeds BUDGET seconds, and prints the largest depth that finished, with
the seconds it took:

- deepest ``lang --spec sturmian:cf=1``
- largest ``laplacian --spec full:2`` leaf count (2^depth)
- deepest ``lipschitz --spec subst:a=ab,b=ba,seed=a`` (default schedule)

These are reference figures for bench/README.md, not part of a benchmark
run.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BUDGET = 10.0

PROBES = (
    ("lang sturmian:cf=1 depth", ["lang", "--spec", "sturmian:cf=1"], 64, 8),
    ("laplacian full:2 depth", ["laplacian", "--spec", "full:2"], 2, 1),
    ("lipschitz subst:a=ab,b=ba,seed=a depth",
     ["lipschitz", "--spec", "subst:a=ab,b=ba,seed=a"], 64, 8),
)


def timed_run(args, depth, work):
    """Seconds the command took at this depth, or None past BUDGET."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(dir=work) as out:
        argv = [sys.executable, "-m", "ultratree.cli"] + args + [
            "--depth", str(depth), "--out", out]
        t0 = perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, cwd=ROOT,
                                  env=env, timeout=BUDGET)
        except subprocess.TimeoutExpired:
            return None
        took = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError("%s failed at depth %d: %s"
                           % (args[0], depth, proc.stderr.decode()[-300:]))
    return took


def probe(args, start, resolution, work):
    """Largest depth that finishes within BUDGET, to the given resolution;
    linear growth steps when resolution is 1 (exponential costs)."""
    good, good_t, bad = None, None, None
    depth = start
    while bad is None:
        t = timed_run(args, depth, work)
        if t is None:
            bad = depth
        else:
            good, good_t = depth, t
            depth = depth + 1 if resolution == 1 else depth * 2
    while good is not None and bad - good > resolution:
        mid = (good + bad) // 2
        t = timed_run(args, mid, work)
        if t is None:
            bad = mid
        else:
            good, good_t = mid, t
    return good, good_t


def main():
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    for label, cmd, start, resolution in PROBES:
        depth, took = probe(cmd, start, resolution, work)
        print("%s: %s (%.1f s)" % (label, depth, took or 0.0), flush=True)


if __name__ == "__main__":
    main()
