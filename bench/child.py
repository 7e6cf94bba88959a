"""Fresh-interpreter entry points of the benchmark.

    python3 bench/child.py setup WORKLOAD SEED
        import ultratree and build the workload's inputs; print the seconds
    python3 bench/child.py [--trace FILE [--memory]] cli ARGS...
        run ``ultratree ARGS...``; with --trace, record spans into FILE
    python3 bench/child.py [--trace FILE [--memory]] distance SEED OUTDIR
        the distance job of the cli-commands workload

Run with PYTHONPATH pointing at the checkout's src directory.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))


def setup(workload, seed):
    import speed
    import workloads  # the benchmark's own modules load no numpy
    before = speed.calibrate()
    t0 = perf_counter()
    lib = workloads.import_library(workload)
    workloads.build(workload, seed, lib, None)
    took = perf_counter() - t0
    print(repr(took * speed.factor(before, speed.calibrate())))


def main(argv):
    trace_file, memory = None, False
    if argv[0] == "--trace":
        trace_file, argv = argv[1], argv[2:]
        if argv[0] == "--memory":
            memory, argv = True, argv[1:]
    command, args = argv[0], argv[1:]
    if command == "setup":
        setup(args[0], int(args[1]))
        return 0

    tracer = None
    if trace_file is not None:
        from tracing import Tracer
        tracer = Tracer(memory=memory)
    try:
        if command == "cli":
            t0 = perf_counter()
            import ultratree.cli
            if tracer is not None:
                tracer.span("cli", "import", t0, perf_counter())
                tracer.install()
            return ultratree.cli.main(args)
        if command == "distance":
            import workloads
            lib = workloads.import_library("distance")
            if tracer is not None:
                tracer.install()
            workloads.distance_job(lib, int(args[0]), Path(args[1]))
            return 0
        raise SystemExit("unknown command %r" % command)
    finally:
        if tracer is not None:
            with open(trace_file, "w") as fh:
                json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
