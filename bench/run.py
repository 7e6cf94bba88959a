"""The ultratree benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is the checkout's own
``src/ultratree``; nothing is installed.  A run measures set-up in fresh
interpreters, then repeats whole passes over the workload's operations,
starting a new pass while fewer than S seconds have gone by, checks every
output outside the timed region, and prints one JSON object as its last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
wraps the library's public functions and reports the per-layer metrics
instead.  A traced run first makes one pass that measures the
tracemalloc peaks, then timed passes; it writes its spans to
.bench_work/traces/.  See bench/README.md.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

# one BLAS thread: the machine has two cores and the benchmark runs one
# operation at a time; set before anything imports numpy
THREADS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")}
os.environ.update(THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5
CHILD_TIMEOUT = 170

# per-command counts the traced run takes from the CLI children that carry
# a tag: tag -> (per-layer metric, counter read in the child)
TAGGED = {
    "lipschitz-tables": ("cli.lipschitz_language_tables",
                         "words.language_table_calls"),
    "laplacian-invariants": ("cli.laplacian_invariant_checks",
                             "laplacian.invariants_calls"),
}


class Context:
    """Fresh-interpreter runs for the operations, one directory each."""

    def __init__(self, work, tracer):
        self.work = work
        self.tracer = tracer
        self.memory = False
        self.pass_dir = self.old_dir = None
        self.previous, self.current = {}, {}   # op name -> output directory
        self.tagged = {}
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def new_pass(self, index):
        """Start pass `index`; the pass before last is no longer needed."""
        if self.old_dir is not None:
            shutil.rmtree(self.old_dir)
        self.old_dir = self.pass_dir
        self.previous, self.current = self.current, {}
        self.pass_dir = self.work / ("pass-%d" % index)
        self.pass_dir.mkdir()
        self.tagged = {}

    def cli(self, args, name, tag=None):
        base = self.pass_dir / name
        out = base / "out"
        out.mkdir(parents=True)
        if args and not args[0].startswith("-"):
            args = args + ["--out", str(out)]
        return self._run(base, out, ["cli"] + args,
                         ["-m", "ultratree.cli"] + args, tag)

    def distance_job(self, seed, name):
        base = self.pass_dir / name
        out = base / "out"
        out.mkdir(parents=True)
        job = ["distance", str(seed), str(out)]
        return self._run(base, out, job, [str(CHILD)] + job, None)

    def _run(self, base, out, child_args, plain_args, tag):
        trace_file = base / "trace.json"
        if self.tracer is None:
            argv = [sys.executable] + plain_args
        else:
            argv = [sys.executable, str(CHILD), "--trace", str(trace_file)]
            argv += ["--memory"] if self.memory else []
            argv += child_args
        with open(base / "stdout", "wb") as so, \
                open(base / "stderr", "wb") as se:
            t0 = perf_counter()
            proc = subprocess.run(argv, stdout=so, stderr=se, cwd=ROOT,
                                  env=self.env, timeout=CHILD_TIMEOUT)
            seconds = perf_counter() - t0
        if self.tracer is not None:
            with open(trace_file) as fh:
                exported = json.load(fh)
            if tag is not None:
                counter = TAGGED[tag][1]
                self.tagged.setdefault(tag, []).append(
                    exported["counts"][counter])
            self.tracer.absorb(exported, parent=self.tracer.stack[-1])
            self.tracer.counts[tracing.WRITE_BYTES] += sum(
                f.stat().st_size for f in out.iterdir())
        self.current[base.name] = out
        return SimpleNamespace(returncode=proc.returncode, out=out,
                               stdout=(base / "stdout").read_bytes(),
                               seconds=seconds)


def measure_setup(workload, seed, env):
    """Median seconds to import ultratree and build the inputs, each time
    in a fresh interpreter, scaled by the child's own calibrations."""
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(CHILD), "setup", workload, str(seed)],
            capture_output=True, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT,
            check=True)
        times.append(float(proc.stdout.decode().split()[-1]))
    return statistics.median(times)


def run_pass(ops, ctx, tracer, run):
    """One pass over the operations; returns each operation's time and the
    start-up times of the --help runs.  Failures and failed checks are
    added to run.

    Every time is scaled by the speed factor of calibrations of the
    operation's sort taken just before and just after it (see speed.py)."""
    times, startup = [], []
    state = {}
    factors = {}  # bench span id -> speed factor, for the tracer
    gc.collect()
    fresh = before = None
    for op in ops:
        if op.fresh != fresh:
            fresh, before = op.fresh, speed.calibrate(op.fresh)
        sid = tracer.open("bench", op.name) if tracer is not None else None
        t0 = perf_counter()
        try:
            out = op.run(state)
        except Exception:  # an operation that fails is counted, not fatal
            out = None
            err = traceback.format_exc(limit=2)
        took = perf_counter() - t0
        if tracer is not None:
            tracer.close(sid)
        gc.collect()
        after = speed.calibrate(fresh)
        scale = speed.factor(before, after)
        before = after
        factors[sid] = scale
        times.append(took * scale)
        if out is None:
            run.failed += 1
            if op.kind != "error":
                run.failures.append("%s: %s" % (op.name, err))
            continue
        if op.kind == "cli":
            startup += [t * scale for t in out]
        try:
            op.check(out)
        except checks.CheckFailure as exc:
            run.errors.append(str(exc))
    return {"times": times, "startup": startup, "factors": factors}


def end_to_end(passes, ops, setup_s, workload):
    """End-to-end metrics from the untraced passes: each operation's median
    over the passes; a pass is their sum, a kind the sum over its ops."""
    op_s = [statistics.median(t) for t in zip(*(p["times"] for p in passes))]
    metrics = {"setup_s": setup_s, "pass_s": sum(op_s),
               "cli_startup_s": statistics.median(
                   t for p in passes for t in p["startup"])}
    for kind in workloads.KINDS[:-1]:
        metrics[kind + "_s"] = sum(t for op, t in zip(ops, op_s)
                                   if op.kind == kind)
    who = (resource.RUSAGE_CHILDREN if workload == "cli-commands"
           else resource.RUSAGE_SELF)
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    return metrics


def per_layer(layer_passes, peaks, tagged):
    """Per-layer metrics: medians over the timed traced passes, the peaks of
    the memory pass, and the per-command counts of the tagged commands."""
    metrics = tracing.median_metrics(layer_passes)
    metrics.update(peaks)
    for tag, (metric, _) in TAGGED.items():
        counts = [c for t in tagged for c in t.get(tag, [])]
        metrics[metric] = statistics.mean(counts) if counts else 0
    return metrics


def measure(args, work):
    """Set up, then make passes for args.seconds; returns the metrics and
    the run's totals."""
    tracer = tracing.Tracer() if args.trace else None
    ctx = Context(work, tracer)
    lib = workloads.import_library(args.workload)
    ops = workloads.build(args.workload, args.seed, lib, ctx)
    if tracer is not None:
        tracer.install()
    else:
        setup_s = measure_setup(args.workload, args.seed, ctx.env)
    run = SimpleNamespace(errors=[], failures=[], attempted=0, failed=0,
                          passes=0, spans=[])
    passes, layer_passes, tagged = [], [], []
    peaks = None
    start = perf_counter()
    while True:
        # a traced run measures memory in its first pass, time after it
        memory = tracer is not None and peaks is None
        if tracer is not None:
            tracer.memory = ctx.memory = memory
        ctx.new_pass(run.passes)
        run.passes += 1
        result = run_pass(ops, ctx, tracer, run)
        run.attempted += len(ops)
        if tracer is not None:
            recorded = tracer.take()
            run.spans.append(recorded["spans"])
            if memory:
                peaks = recorded["peaks"]
                continue
            metrics = tracing.pass_metrics(recorded, result["factors"])
            metrics["trace.pass_s"] = sum(result["times"])
            layer_passes.append(metrics)
            tagged.append(ctx.tagged)
        passes.append(result)
        if perf_counter() - start >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()
        return per_layer(layer_passes, peaks, tagged), run
    return end_to_end(passes, ops, setup_s, args.workload), run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ultratree" / "__init__.py").is_file():
        print("no ultratree sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if args.trace else "end_to_end"]}
    wrong = checks.self_test()
    if wrong:
        print("checkers accept perturbed values: %s" % ", ".join(wrong),
              file=sys.stderr)
        return 2

    # one CPU for this process and its children, so that the calibrations
    # measure the CPU the operations run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench_work"))
    try:
        metrics, run = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(want):
        print("metrics differ from BENCHMARK.json: %s"
              % sorted(set(metrics) ^ set(want)), file=sys.stderr)
        return 2

    for text in run.failures:
        print("OPERATION FAILED: " + text, file=sys.stderr)
    for text in run.errors:
        print("CHECK FAILED: " + text, file=sys.stderr)
    print("%s seed %d: %d passes, %d operations, %d failed, %d check "
          "failures" % (args.workload, args.seed, run.passes, run.attempted,
                        run.failed, len(run.errors)), file=sys.stderr)
    if args.trace:
        traces = ROOT / ".bench_work" / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / ("%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "layer", "function",
                                  "start", "end"], "passes": run.spans}, fh)
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": want[k]}
                    for k in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
