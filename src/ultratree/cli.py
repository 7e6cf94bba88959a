"""Command line surface for the subshift analyses.

Four subcommands drive the library: ``lang`` (complexity and
repulsiveness tables), ``lipschitz`` (order diagnostics over a depth
schedule), ``zeta`` (partial sums and abscissa brackets) and
``laplacian`` (operator assembly, invariant checks and spectra).  Series
go to CSV or JSON per --format; verdict reports are always JSON and embed
the configuration, the edge-length convention tag and the library
version, so a report is reproducible from its own header.  Outputs are
byte-identical across runs for a fixed configuration and seed.

Exit codes: 0 success, 2 invalid configuration, unwritable output or a
run that ran out of memory (a refused run writes nothing, not even the
--out directory), 3 internal invariant violation, which is the Laplacian
pre-check before its spectrum or its trace check after it
(InvariantViolationError, defined in the package root so that main names
it without loading the laplacian layer).

Loading this module loads no library layer, so --help starts as fast as
argparse.  Each subcommand imports the layers it runs when it runs: lang
loads words; lipschitz words and tree; zeta words, tree and zeta;
laplacian words, tree and laplacian.  fractions loads only for a
--measure file, and json and csv only when something is written.  (math
is already loaded when the interpreter starts.)
"""

import argparse
import math
import os
import sys

from . import EDGE_LENGTH_CONVENTION, InvariantViolationError, __version__


class ConfigError(ValueError):
    """The command line describes an invalid configuration."""


# the exact dense assembly and its checks grow as the square of the leaf
# count; at this limit a run with a random measure and rho = 2 takes 16 to
# 20 s and about 780 MB on a 2-core machine
MAX_LAPLACIAN_LEAVES = 2048
# each s costs a series summed level by level one pass over the levels, or
# one term if it overflows at the first schedule point, and a closed-form
# series a few operations per schedule point; at depth 16384 this many grid
# steps of a level-by-level series take about 90 s on a 2-core machine
MAX_S_STEPS = 10_000
# a depth-N run holds sequences of N + 1 items (a level per length 0..N),
# and no Python sequence is longer than sys.maxsize; a deeper run would
# fail on its first such sequence with OverflowError
MAX_DEPTH = sys.maxsize - 1
# an integer exponent raises exact Fractions to that power: full:2 at depth 6
# takes 0.5 s at rho 2, 0.6 s at 64 and 1.0 s at 256 on a 2-core machine
MAX_RHO = 64


# ---------------------------------------------------------------------------
# argument parsing helpers


def parse_spec(text):
    """Subshift descriptor: full:K, sturmian:cf=..., window:WORD, or
    subst:a=ab,b=a,seed=a.

    Sturmian coefficient lists accept integers plus a final "...", meaning
    repeat the last value, or "linear" / "pow2" tail rules; a bare finite
    list also continues with its last value so that e.g. cf=1 is the all-
    ones expansion.
    """
    from .words import ExplicitWindow, FullShift, SturmianCF, Substitution
    kind, _, rest = text.partition(":")
    try:
        if kind == "full":
            return FullShift(int(rest))
        if kind == "sturmian":
            if not rest.startswith("cf="):
                raise ConfigError("sturmian spec needs cf=...")
            tokens = rest[3:].split(",")
            if tokens[-1] in ("...", "linear", "pow2"):
                tail_token, tokens = tokens[-1], tokens[:-1]
            else:
                tail_token = "..."
            mu = tuple(int(t) for t in tokens)
            if tail_token != "...":
                tail = (tail_token,)
            else:
                if not mu:
                    raise ConfigError("cf list needs at least one value")
                tail = ("constant", mu[-1])
            return SturmianCF(mu=mu, tail=tail)
        if kind == "window":
            return ExplicitWindow(rest)
        if kind == "subst":
            rules, seed = [], None
            for part in rest.split(","):
                key, _, val = part.partition("=")
                if key == "seed":
                    seed = val
                else:
                    rules.append((key, val))
            if seed is None:
                seed = rules[0][0]
            return Substitution.from_rules(dict(rules), seed)
    except (ValueError, KeyError) as exc:
        raise ConfigError("bad spec %r: %s" % (text, exc))
    raise ConfigError("unknown spec kind %r" % kind)


def parse_delta(text, depth=None):
    """Delta family: exp, harmonic, powerlog:a,b, geom:q, or table:FILE
    (one positive value per line, strictly decreasing).  A table must hold
    at least depth values, since a depth-N run reads delta_0 .. delta_(N-1).
    """
    from .tree import DeltaSequence, delta_from_name
    if text.startswith("table:"):
        path = text.split(":", 1)[1]
        try:
            with open(path) as fh:
                values = [float(line) for line in fh if line.strip()]
        except OSError as exc:
            raise ConfigError("cannot read delta table: %s" % exc)
        if depth is not None and len(values) < depth:
            raise ConfigError("delta table %s has %d values, depth %d needs "
                              "%d" % (path, len(values), depth, depth))
        return DeltaSequence.table(values)
    try:
        return delta_from_name(text)
    except ValueError as exc:
        raise ConfigError(str(exc))


def parse_schedule(text, depth):
    """Truncation depths from a comma list, or by default depth/8, depth/4,
    depth/2 and depth, each raised to 2 and clipped to depth."""
    if text is None:
        return tuple(sorted({min(max(2, depth // k), depth)
                             for k in (8, 4, 2, 1)}))
    try:
        pts = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise ConfigError("bad schedule: %s" % exc)
    if (any(b <= a for a, b in zip(pts, pts[1:])) or pts[0] < 1
            or pts[-1] > depth):
        raise ConfigError("schedule must increase from 1 or more and stay "
                          "within --depth")
    return pts


def parse_weight(text):
    """A probability entry from a measure file: fraction string or float."""
    from fractions import Fraction
    if isinstance(text, str) and "/" in text:
        return Fraction(text)
    return Fraction(text) if isinstance(text, int) else float(text)


def load_measure_weights(path):
    """A JSON object mapping words to lists of child probabilities."""
    import json
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError("cannot read measure file: %s" % exc)
    if not (isinstance(raw, dict)
            and all(isinstance(probs, list) for probs in raw.values())):
        raise ConfigError("measure file must map words to lists of weights")
    try:
        return {node: [parse_weight(p) for p in probs]
                for node, probs in raw.items()}
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError("bad weight in measure file: %s" % exc)


# ---------------------------------------------------------------------------
# output helpers


def _jsonsafe(value):
    """Strict-JSON encoding: non-finite floats become strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {k: _jsonsafe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonsafe(v) for v in value]
    return value


def _create(path, newline=None):
    """Open an output file for writing, creating its directory first, so
    that a run refused before its first file leaves no directory behind."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", newline=newline)


def _write_json(path, data):
    import json
    with _create(path) as fh:
        json.dump(_jsonsafe(data), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def write_series(path_base, fmt, header, rows):
    """A table of rows either as CSV or as a JSON list of objects."""
    if fmt == "json":
        return _write_json(path_base + ".json",
                           [dict(zip(header, row)) for row in rows])
    import csv
    path = path_base + ".csv"
    with _create(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_report(path, args, body):
    """A JSON report whose config is the parsed command line, less the
    subcommand and its handler, the output directory and unset options."""
    config = {k: v for k, v in vars(args).items()
              if k not in ("command", "run", "out") and v is not None}
    payload = {"config": config,
               "edge_length_convention": EDGE_LENGTH_CONVENTION,
               "version": __version__}
    payload.update(body)
    return _write_json(path, payload)


# ---------------------------------------------------------------------------
# subcommands


def cmd_lang(args):
    from itertools import zip_longest
    from .words import (complexity_profile, language_table,
                        repetitivity_estimate, repulsiveness_estimates)
    spec = parse_spec(args.spec)
    table = language_table(spec, args.depth)
    P, g = complexity_profile(table)
    rows = [(n, *row) for n, row in enumerate(zip_longest(
        P, g, map(len, table.right_special), fillvalue=""))]
    series = write_series(os.path.join(args.out, "language"), args.format,
                          ("n", "P", "g", "right_special"), rows)
    l_hat, l_hat_r, witnesses = repulsiveness_estimates(table)
    repet = {str(n): repetitivity_estimate(table, n)
             for n in range(1, min(4, table.depth) + 1)}
    body = {
        "repulsiveness": {
            "l_hat": None if math.isinf(l_hat) else l_hat,
            "l_hat_R": None if math.isinf(l_hat_r) else l_hat_r,
            "witnesses": {k: list(v) if v else None
                          for k, v in witnesses.items()},
        },
        "repetitivity": repet,
        "stabilized": table.stabilized,
    }
    report = write_report(os.path.join(args.out, "language_report.json"),
                          args, body)
    return [series, report]


def cmd_lipschitz(args):
    from .tree import TREND_FLAT, TREND_GROW, order_diagnostics, trend_verdict
    spec = parse_spec(args.spec)
    delta = parse_delta(args.delta, args.depth)
    schedule = parse_schedule(args.schedule, args.depth)
    rows = [(N, c.value, w.value, 1.0 + 2.0 * c.value, c.witness_node,
             w.witness_path)
            for N, (c, w) in zip(schedule,
                                 order_diagnostics(spec, delta, schedule))]
    series = write_series(os.path.join(args.out, "lipschitz"), args.format,
                          ("N", "C", "W", "K", "C_witness", "W_witness"),
                          rows)
    tail = delta.tail_bound(schedule[-1])
    body = {
        "bounded_trend": {name: trend_verdict([row[i] for row in rows])
                          for i, name in ((1, "C"), (2, "W"), (3, "K"))},
        "thresholds": {"flat": TREND_FLAT, "grow": TREND_GROW},
        "schedule": list(schedule),
        "delta_tail_bound": tail,
    }
    report = write_report(os.path.join(args.out, "lipschitz_report.json"),
                          args, body)
    return [series, report]


def cmd_zeta(args):
    from .zeta import abscissa_estimate, exponent_estimates, zeta_partials
    spec = parse_spec(args.spec)
    delta = parse_delta(args.delta, args.depth)
    schedule = parse_schedule(args.schedule, args.depth)
    lo, hi, step = args.s_min, args.s_max, args.s_step
    if not step > 0 or hi < lo:
        raise ConfigError("the s grid needs --s-step > 0 and --s-max >= "
                          "--s-min")
    if not (hi - lo) / step <= MAX_S_STEPS or math.isinf(step):  # NaN too
        raise ConfigError("the s grid needs finite bounds and at most %d "
                          "steps" % MAX_S_STEPS)
    count = int(round((hi - lo) / step))
    s_grid = [lo + i * step for i in range(count + 1)]
    partials = zeta_partials(spec, delta, s_grid, schedule)
    rows = []
    for variant in ("full", "low", "pb"):
        for s, row in zip(partials.s_grid, partials.partials[variant]):
            for N, val in zip(schedule, row):
                rows.append((variant, s, N, val))
    series = write_series(os.path.join(args.out, "zeta_partials"),
                          args.format, ("variant", "s", "N", "partial"),
                          rows)
    body = {"abscissa": {}, "schedule": list(schedule)}
    if len(schedule) >= 3:
        for variant, rep in abscissa_estimate(partials).items():
            body["abscissa"][variant] = {
                "bracket": list(rep.bracket),
                "estimate": rep.estimate,
                "applicable": rep.applicable,
            }
    profile = partials.profile
    try:
        exps = exponent_estimates(profile.P, profile.g, schedule[-1])
        body["exponents"] = {
            "beta": [exps.beta_lower, exps.beta_upper],
            "eta": [exps.eta_lower, exps.eta_upper],
            "super_polynomial": exps.super_polynomial,
            "window": list(exps.window),
            "tolerance": exps.tolerance,
        }
    except ValueError:
        body["exponents"] = None
    report = write_report(os.path.join(args.out, "zeta_report.json"), args,
                          body)
    return [series, report]


def cmd_laplacian(args):
    from .words import _refuse_large_table, _refuse_oversized, leaf_count
    from .tree import spec_tree
    from .laplacian import (assemble_laplacian, assemble_laplacian_dirichlet,
                            assemble_pb_laplacian, check_invariants,
                            cylinder_measure, matrix_difference, spectrum)
    spec = parse_spec(args.spec)
    delta = parse_delta(args.delta, args.depth)
    if math.isfinite(args.rho) and args.rho > MAX_RHO:
        # NaN and infinity are refused by density() as not finite
        raise ConfigError("density exponent %r exceeds the limit of %d"
                          % (args.rho, MAX_RHO))
    # count the leaves before any table: a closed form, or else the sorted
    # leaves, read once and checked as a tree before they are counted; then
    # the table's letters, from its level counts.  The full-shift cap comes
    # first
    _refuse_oversized(spec, args.depth)
    count = leaf_count(spec, args.depth)
    if count is None or count <= MAX_LAPLACIAN_LEAVES:
        tree = spec_tree(spec, args.depth)
        count = len(tree.sorted_leaves)
    if count > MAX_LAPLACIAN_LEAVES:
        raise ConfigError("laplacian of %d leaves exceeds the limit of %d"
                          % (count, MAX_LAPLACIAN_LEAVES))
    _refuse_large_table(tree)
    if args.measure == "uniform":
        mu = cylinder_measure(tree)
    elif args.measure == "random":
        mu = cylinder_measure(tree, weights="random", seed=args.seed)
    elif args.measure.startswith("file:"):
        weights = load_measure_weights(args.measure.split(":", 1)[1])
        mu = cylinder_measure(tree, weights=weights)
    else:
        raise ConfigError("unknown measure %r" % args.measure)
    lap = assemble_laplacian(tree, mu, args.rho, delta)
    oracle = assemble_laplacian_dirichlet(tree, mu, args.rho, delta)
    checks = check_invariants(lap)
    checks["route_difference"] = matrix_difference(lap, oracle)
    eigenvalues = spectrum(lap)

    triplets = [(i, j, v) for i, row in enumerate(lap.floats)
                for j, v in enumerate(row) if v != 0.0]
    files = [write_series(os.path.join(args.out, "laplacian_matrix"),
                          args.format, ("i", "j", "value"), triplets)]
    files.append(_write_json(os.path.join(args.out, "index_map.json"),
                             {str(i): w for i, w in enumerate(lap.leaves)}))
    files.append(write_series(os.path.join(args.out, "spectrum"),
                              args.format, ("rank", "eigenvalue"),
                              list(enumerate(float(v)
                                             for v in eigenvalues))))
    # the spectrum's blocks: one per fork, of its child count less one
    forks = tree.forks.values()
    body = {"invariants": checks, "size": len(lap.leaves),
            "spectrum": {"blocks": len(forks), "largest_block": max(
                (len(bounds) - 2 for bounds in forks), default=0)}}
    if args.pb:
        pb = assemble_pb_laplacian(tree, mu, args.rho, delta,
                                   pair_selection=args.pb)
        body["pb"] = {
            "pair_selection": args.pb,
            "max_abs_difference_from_full": matrix_difference(lap, pb),
        }
    report = write_report(os.path.join(args.out, "laplacian_report.json"),
                          args, body)
    files.append(report)
    return files


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ultratree",
        description="Subshift tree, distance, zeta and Laplacian analyses")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--spec", required=True,
                        help="full:K | sturmian:cf=... | window:WORD | "
                             "subst:a=ab,b=a,seed=a")
    common.add_argument("--depth", type=int, required=True)
    common.add_argument("--out", default=".")
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    withdelta = argparse.ArgumentParser(add_help=False)
    withdelta.add_argument("--delta", default="exp",
                           help="exp | harmonic | powerlog:a,b | geom:q | "
                                "table:FILE")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("lang", parents=[common]).set_defaults(run=cmd_lang)

    lip = sub.add_parser("lipschitz", parents=[common, withdelta])
    lip.add_argument("--schedule", help="comma list of depths")
    lip.set_defaults(run=cmd_lipschitz)

    zet = sub.add_parser("zeta", parents=[common, withdelta])
    zet.add_argument("--schedule", help="comma list of truncation depths")
    zet.add_argument("--s-min", type=float, default=0.2)
    zet.add_argument("--s-max", type=float, default=3.0)
    zet.add_argument("--s-step", type=float, default=0.05)
    zet.set_defaults(run=cmd_zeta)

    lap = sub.add_parser("laplacian", parents=[common, withdelta])
    lap.add_argument("--seed", type=int, default=0)
    lap.add_argument("--rho", type=float, default=2.0,
                     help="density exponent: rho(delta) = delta^s")
    lap.add_argument("--measure", default="uniform",
                     help="uniform | random | file:PATH")
    lap.add_argument("--pb", nargs="?", const="single",
                     choices=("single", "nu-average"),
                     help="also assemble the restricted-pair variant")
    lap.set_defaults(run=cmd_laplacian)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.depth < 1:
        parser.exit(2, "depth must be >= 1\n")
    if args.depth > MAX_DEPTH:
        print("error: depth %d exceeds the limit of %d" % (args.depth,
                                                           MAX_DEPTH),
              file=sys.stderr)
        return 2
    try:
        files = args.run(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except InvariantViolationError as exc:
        print("invariant violation: %s" % exc, file=sys.stderr)
        return 3
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
