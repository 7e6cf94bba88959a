"""The four benchmark workloads: their inputs, operations and checks.

A workload is a fixed list of operations.  Each operation is one analysis
of a kind (lang, lipschitz, zeta, distance, laplacian, cli): the library
calls one CLI command would make, or a CLI run in a fresh interpreter.
Every workload carries at least one analysis of every kind, so that every
end-to-end metric is measured on every workload; the analyses a workload
is not about are kept small.  The seed draws only inputs whose cost does
not depend on it (query pairs, choice functions, measures, test vectors,
small depth offsets), so runs with different seeds do the same work.

Library calls go through module attributes (``lib.words.language_table``)
so that the tracer's wrappers see them.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import checks as ck
import reference as ref

KINDS = ("lang", "lipschitz", "zeta", "distance", "laplacian", "cli")
WORKLOADS = ("window-language", "laplacian-dense", "closed-form-deep",
             "cli-commands")

# the CLI's default exponent grid: s = 0.2, 0.25, ..., 3.0
GRID = tuple(0.2 + 0.05 * i for i in range(57))

TM_RULES = {"a": "ab", "b": "ba"}


class OpFailed(RuntimeError):
    """An operation ended without a result (a CLI run's exit code)."""


@dataclass
class Op:
    name: str
    kind: str           # one of KINDS, or "error" for the failing command
    run: object         # run(state) -> output
    check: object       # check(output), raises checks.CheckFailure
    fresh: bool = False  # runs in fresh interpreters


def import_library(workload):
    """Import what the workload's own process calls."""
    if workload == "cli-commands":
        import ultratree.cli  # noqa: F401  (fresh interpreters do the rest)
        return None
    import ultratree.laplacian
    import ultratree.metrics
    import ultratree.tree
    import ultratree.words
    import ultratree.zeta
    return SimpleNamespace(words=ultratree.words, tree=ultratree.tree,
                           metrics=ultratree.metrics, zeta=ultratree.zeta,
                           laplacian=ultratree.laplacian)


def make_spec(lib, key):
    W = lib.words
    if key == "fib":
        return W.fibonacci_spec()
    if key == "tm":
        return W.Substitution.from_rules(TM_RULES, "a")
    if key.startswith("full"):
        return W.FullShift(int(key[4:]))
    if key in ("linear", "pow2"):
        return W.SturmianCF(mu=(1,), tail=(key,))
    raise ValueError(key)


def ref_complexity(key, N):
    """Reference P(0..N) of a spec key."""
    if key == "tm":
        return [ref.thue_morse_complexity(n) for n in range(N + 1)]
    if key.startswith("full"):
        k = int(key[4:])
        return [k ** n for n in range(N + 1)]
    return [n + 1 for n in range(N + 1)]  # Sturmian


_FULL_REFS = {}


def full_shift_refs(delta_name, N):
    """Reference C(N) and W(N) of a full shift, cached per run."""
    key = (delta_name, N)
    if key not in _FULL_REFS:
        logs = ref.delta_logs(delta_name, N)
        _FULL_REFS[key] = (ref.full_shift_c(logs, N),
                           ref.full_shift_w(logs, N))
    return _FULL_REFS[key]


def rational_vector(rng, size):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for _ in range(size)]


# ---------------------------------------------------------------------------
# library analyses


def lang_op(lib, key, N):
    """What ``lang`` computes: the table, P and g, right-special words per
    length, the repulsiveness estimates and repetitivity for n <= 4."""
    spec = make_spec(lib, key)

    def run(state):
        W = lib.words
        table = W.language_table(spec, N)
        P, g = W.complexity_profile(table)
        rs = [W.right_special_words(table, n) for n in range(N)]
        _, l_hat_r, _ = W.repulsiveness_estimates(table)
        rep = [W.repetitivity_estimate(table, n)
               for n in range(1, min(4, N) + 1)]
        state[("table", key, N)] = table
        return P, g, rs, l_hat_r, rep, table.stabilized

    def check(out):
        P, g, rs, l_hat_r, rep, stabilized = out
        label = "lang %s N=%d" % (key, N)
        want = ref_complexity(key, N)
        ck.sequence_equal(label + " stabilized", stabilized, [True] * (N + 1))
        ck.sequence_equal(label + " P", P, want)
        ck.sequence_equal(label + " g", g,
                          [want[n + 1] - want[n] for n in range(N)])
        if key.startswith("full"):
            ck.sequence_equal(label + " right-special counts",
                              [len(s) for s in rs], want[:N])
            ck.equal(label + " l_hat_R", l_hat_r, 1.0 / (N - 2))
            ck.sequence_equal(label + " repetitivity", rep,
                              [None] * len(rep))
            return
        # binary languages: a right-special word has both extensions
        ck.sequence_equal(label + " right-special counts",
                          [len(s) for s in rs],
                          [want[n + 1] - want[n] for n in range(N)])
        for n, r in enumerate(rep, start=1):
            if r is None or r < n or (n > 1 and r < rep[n - 2]):
                ck.fail(label + " repetitivity", "R(%d) = %r" % (n, r))
        if key == "fib":
            c = ref.fibonacci_characteristic(N)
            ck.sequence_equal(label + " right-special words",
                              rs, [{ref.sturmian_right_special(c, n)}
                                   for n in range(N)])
            ck.equal(label + " l_hat_R", l_hat_r, ref.fibonacci_l_hat_r(N))

    return Op("lang %s N=%d" % (key, N), "lang", run, check)


def lipschitz_tree_op(lib, key, N, deltas, fast):
    """Tree engine for C and W on the table's tree, and for full shifts
    and Sturmian specs the fast engine beside it."""
    spec = make_spec(lib, key)

    def run(state):
        T, M = lib.tree, lib.metrics
        tree = T.build_tree(state[("table", key, N)])
        state[("tree", key, N)] = tree
        out = []
        for name in deltas:
            delta = M.delta_from_name(name)
            row = [name, M.lipschitz_estimate(tree, delta).value,
                   M.continuity_witness(tree, delta).value]
            if fast:
                row += [M.lipschitz_estimate_fast(spec, delta, N).value,
                        M.continuity_witness_fast(spec, delta, N).value]
            out.append(row)
        return out

    def check(out):
        label = "lipschitz %s N=%d" % (key, N)
        for row in out:
            name, c, w = row[:3]
            if name == "exp":
                ck.at_most(label + " C under exp", c, ref.EXP_C_BOUND)
            if fast:
                ck.close(label + " C tree vs fast " + name, c, row[3], 1e-12)
                ck.close(label + " W tree vs fast " + name, w, row[4], 1e-12)
            if key.startswith("full"):
                want_c, want_w = full_shift_refs(name, N)
                ck.close(label + " C " + name, c, want_c, 1e-10)
                ck.close(label + " W " + name, w, want_w, 1e-10)

    return Op("lipschitz %s N=%d" % (key, N), "lipschitz", run, check)


def lipschitz_fast_op(lib, key, depths, deltas):
    """The closed-form engines for C and W over a sweep of depths."""
    spec = make_spec(lib, key)

    def run(state):
        M = lib.metrics
        out = []
        for name in deltas:
            delta = M.delta_from_name(name)
            for N in depths:
                out.append((name, N,
                            M.lipschitz_estimate_fast(spec, delta, N).value,
                            M.continuity_witness_fast(spec, delta, N).value))
        return out

    def check(out):
        label = "fast lipschitz %s" % key
        prev = {}
        for name, N, c, w in out:
            if name == "exp":
                ck.at_most(label + " C under exp", c, ref.EXP_C_BOUND)
            # more levels only add chains, so C and W never shrink with N
            if name in prev:
                ck.ordered(label + " C monotone in N " + name,
                           prev[name][0], c)
                ck.ordered(label + " W monotone in N " + name,
                           prev[name][1], w)
            prev[name] = (c, w)
            if key.startswith("full"):
                want_c, want_w = full_shift_refs(name, N)
                ck.close("%s C %s N=%d" % (label, name, N), c, want_c, 1e-10)
                ck.close("%s W %s N=%d" % (label, name, N), w, want_w, 1e-10)

    return Op("fast lipschitz %s" % key, "lipschitz", run, check)


def _check_partials(label, key, delta_name, zp, reports):
    """Checks shared by every zeta analysis."""
    rows = zip(zp.partials["pb"], zp.partials["low"], zp.partials["full"])
    for s, (pb, low, full) in zip(zp.s_grid, rows):
        for j in range(len(zp.schedule)):
            ck.ordered("%s Z_pb <= Z_low <= Z_full at s=%r" % (label, s),
                       pb[j], low[j], full[j])
    sturmian = key in ("fib", "linear", "pow2")
    if sturmian and delta_name == "harmonic":
        logs = ref.delta_logs(delta_name, zp.schedule[-1])
        for s, row in zip(zp.s_grid, zp.partials["low"]):
            for N, val in zip(zp.schedule, row):
                ck.close("%s low series s=%r N=%d" % (label, s, N), val,
                         ref.sturmian_low_series(logs, s, N), 1e-10)
    if key == "full2" and delta_name.startswith("geom:"):
        q = float(delta_name[5:])
        for s, row in zip(zp.s_grid, zp.partials["full"]):
            for N, val in zip(zp.schedule, row):
                ck.close("%s full series s=%r N=%d" % (label, s, N), val,
                         ref.full2_geom_full_series(q, s, N), 1e-10)
    # brackets are estimates from doubling increments; shallow schedules
    # claim none
    if zp.schedule[0] >= 16 and ((sturmian and delta_name == "harmonic") or (
            key == "full2" and delta_name == "geom:0.5")):
        for variant, rep in reports.items():
            ck.bracket_contains("%s %s abscissa" % (label, variant),
                                rep.bracket, 1.0)


def _check_exponents(label, key, ex):
    if ex is None:
        return
    if key.startswith("full"):
        ck.equal(label + " super-polynomial", ex.super_polynomial, True)
    elif key != "tm":
        # P(n) = n + 1: ln P / ln n lies in (1, 1 + tolerance) on the window
        ck.ordered(label + " beta", 1.0, ex.beta_lower, ex.beta_upper,
                   1.0 + ex.tolerance)


def zeta_table_op(lib, key, N, deltas, schedule):
    """What ``zeta`` computes, once per delta family, with the level
    profile read off the table each time, as each command would."""

    def run(state):
        Z = lib.zeta
        table = state[("table", key, N)]
        out = []
        for name in deltas:
            profile = Z.level_profile(table)
            zp = Z.zeta_partials(profile, lib.metrics.delta_from_name(name),
                                 GRID, schedule)
            reports = Z.abscissa_estimate(zp)
            ex = (Z.exponent_estimates(profile.P, profile.g, N)
                  if N >= 16 else None)
            out.append((name, profile, zp, reports, ex))
        return out

    def check(out):
        for name, profile, zp, reports, ex in out:
            label = "zeta %s N=%d %s" % (key, N, name)
            ck.sequence_equal(label + " P", profile.P, ref_complexity(key, N))
            _check_partials(label, key, name, zp, reports)
            _check_exponents(label, key, ex)

    return Op("zeta %s N=%d" % (key, N), "zeta", run, check)


def zeta_spec_op(lib, key, delta_name, schedule):
    """What ``zeta`` computes from a spec, whose profile is closed form."""
    spec = make_spec(lib, key)

    def run(state):
        Z = lib.zeta
        zp = Z.zeta_partials(spec, lib.metrics.delta_from_name(delta_name),
                             GRID, schedule)
        reports = Z.abscissa_estimate(zp)
        ex = Z.exponent_estimates(zp.profile.P, zp.profile.g, schedule[-1])
        return zp, reports, ex

    def check(out):
        zp, reports, ex = out
        label = "zeta %s %s" % (key, delta_name)
        _check_partials(label, key, delta_name, zp, reports)
        _check_exponents(label, key, ex)

    return Op("zeta %s %s N=%d" % (key, delta_name, schedule[-1]), "zeta",
              run, check)


def distance_queries(lib, tree, tau_seed, pairs, graph_count):
    """Ultrametric, spectral and sup distances of leaf pairs under a seeded
    choice function, and Dijkstra for the first graph_count pairs."""
    T, M = lib.tree, lib.metrics
    delta = M.delta_from_name("harmonic")
    tau = T.choice_function(tree, "seeded-random", seed=tau_seed)
    dist = [(M.ultrametric_distance(x, y, delta),
             M.spectral_distance(tree, tau, delta, x, y),
             M.sup_spectral_distance(tree, delta, x, y))
            for x, y in pairs]
    graph = T.approximation_graph(tree, tau, delta)
    return dist, M.graph_distances(graph, pairs[:graph_count])


def check_distances(label, dist, oracle):
    for u, s, p in dist:
        ck.ordered(label + " ultrametric <= tau <= sup", u, s, p)
    for (_, s, _), d in zip(dist, oracle):
        if s != d:
            ck.close(label + " closed form vs Dijkstra", s, d, 1e-12)


def distance_op(lib, key, N, tau_seed, fractions, graph_count):
    """distance_queries on the tree of an earlier lipschitz analysis."""
    label = "distance %s N=%d" % (key, N)

    def run(state):
        tree = state[("tree", key, N)]
        leaves = tree.leaves()
        L = len(leaves)
        pairs = [(leaves[int(u * L)], leaves[int(v * L)])
                 for u, v in fractions]
        return distance_queries(lib, tree, tau_seed, pairs, graph_count)

    return Op(label, "distance", run,
              lambda out: check_distances(label, *out))


def laplacian_op(lib, key, N, measure, rho, measure_seed, f):
    """What ``laplacian`` computes (both assembly routes, invariants,
    spectrum, the pb variant) plus one Dirichlet form value."""
    spec = make_spec(lib, key)
    k = int(key[4:]) if key.startswith("full") else None
    uniform_ref = measure == "uniform" and rho == 2 and k is not None

    def run(state):
        L = lib.laplacian
        tree = state.get(("tree", key, N))
        if tree is None:
            tree = lib.tree.build_tree(lib.words.language_table(spec, N))
        delta = lib.metrics.delta_from_name("harmonic")
        if measure == "uniform":
            mu = L.cylinder_measure(tree)
        else:
            mu = L.cylinder_measure(tree, weights="random", seed=measure_seed)
        lap = L.assemble_laplacian(tree, mu, rho, delta)
        oracle = L.assemble_laplacian_dirichlet(tree, mu, rho, delta)
        inv = L.check_invariants(lap)
        routes = L.matrix_difference(lap, oracle)
        eig = L.spectrum(lap)
        pb = L.assemble_pb_laplacian(tree, mu, rho, delta)
        pb_diff = L.matrix_difference(lap, pb)
        q = L.dirichlet_form_value(tree, mu, rho, delta, f, f)
        return lap, inv, routes, eig, pb_diff, q

    def check(out):
        lap, inv, routes, eig, pb_diff, q = out
        label = "laplacian %s N=%d" % (key, N)
        ck.equal(label + " size", len(lap.leaves), len(f))
        ck.equal(label + " route difference", routes, 0.0)
        ck.equal(label + " reported invariants",
                 (inv["row_ok"], inv["adjoint_ok"]), (True, True))
        if k is None or k == 2:
            # binary branching: the pb operator is the full one
            ck.equal(label + " pb difference", pb_diff, 0.0)
        ck.rows_conserve(label, lap.rows)
        ck.self_adjoint(label, lap.rows, lap.mu_leaves)
        ck.form_matches(label, q, lap.rows, lap.mu_leaves, f)
        ck.trace_matches(label + " trace",
                         sum(lap.rows[i][i] for i in range(len(f))), eig)
        ck.kernel_dimension(label, eig)
        if uniform_ref:
            ck.spectrum_matches(label + " spectrum", eig,
                                ref.uniform_full_shift_spectrum(k, N))

    return Op("laplacian %s N=%d" % (key, N), "laplacian", run, check)


# ---------------------------------------------------------------------------
# fresh-interpreter runs


def help_op(ctx, runs):
    """``ultratree --help`` in fresh interpreters; each run is timed."""

    def run(state):
        times = []
        for i in range(runs):
            res = ctx.cli(["--help"], "help-%d" % i)
            times.append(res.seconds)
            if b"usage:" not in res.stdout:
                raise OpFailed("--help printed no usage")
        return times

    return Op("cli --help", "cli", run, lambda out: None, fresh=True)


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    head = lines[0].split(",")
    return [dict(zip(head, line.split(","))) for line in lines[1:]]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def fresh_op(ctx, name, kind, spawn, check=None, expect=0):
    """One fresh-interpreter run, spawn(), writing into its own directory;
    its files must be byte-identical to the previous pass's."""

    def run(state):
        res = spawn()
        if res.returncode != expect:
            raise OpFailed("%s exited %d, want %d"
                           % (name, res.returncode, expect))
        return res.out, ctx.previous.get(name)

    def check_all(out):
        outdir, previous = out
        if previous is not None:
            for f in sorted(outdir.iterdir()):
                ck.byte_identical("%s %s" % (name, f.name), f.read_bytes(),
                                  (previous / f.name).read_bytes())
        if check is not None:
            check(outdir)

    return Op(name, kind, run, check_all, fresh=True)


def cli_op(ctx, name, kind, argv, check=None, expect=0, tag=None):
    """One CLI command in a fresh interpreter."""
    return fresh_op(ctx, name, kind, lambda: ctx.cli(argv, name, tag=tag),
                    check, expect)


def distance_job_op(ctx, name, seed):
    """Distance queries in a fresh interpreter (there is no distance
    subcommand, so this is what a user's script pays)."""

    def check(out):
        data = _read_json(out / "distances.json")
        check_distances(name, data["distances"], data["dijkstra"])

    return fresh_op(ctx, name, "distance",
                    lambda: ctx.distance_job(seed, name), check)


def check_cli_lang(key, N):
    def check(out):
        label = "cli lang %s N=%d" % (key, N)
        rows = _read_csv(out / "language.csv")
        want = ref_complexity(key, N)
        ck.sequence_equal(label + " P", [int(r["P"]) for r in rows], want)
        g = [want[n + 1] - want[n] for n in range(N)]
        ck.sequence_equal(label + " g", [int(r["g"]) for r in rows[:N]], g)
        ck.sequence_equal(label + " right-special",
                          [int(r["right_special"]) for r in rows[:N]], g)
        report = _read_json(out / "language_report.json")
        ck.sequence_equal(label + " stabilized", report["stabilized"],
                          [True] * (N + 1))
        if key == "fib":
            ck.equal(label + " l_hat_R", report["repulsiveness"]["l_hat_R"],
                     ref.fibonacci_l_hat_r(N))
    return check


def check_cli_lipschitz(key, delta_name, schedule):
    def check(out):
        label = "cli lipschitz %s %s" % (key, delta_name)
        rows = _read_csv(out / "lipschitz.csv")
        ck.sequence_equal(label + " schedule", [int(r["N"]) for r in rows],
                          schedule)
        for r in rows:
            N, c, w = int(r["N"]), float(r["C"]), float(r["W"])
            ck.equal(label + " K = 1 + 2C", float(r["K"]), 1.0 + 2.0 * c)
            if delta_name == "exp":
                ck.at_most(label + " C under exp", c, ref.EXP_C_BOUND)
            if key.startswith("full"):
                want_c, want_w = full_shift_refs(delta_name, N)
                ck.close("%s C N=%d" % (label, N), c, want_c, 1e-10)
                ck.close("%s W N=%d" % (label, N), w, want_w, 1e-10)
    return check


def check_cli_zeta(key, delta_name, schedule):
    def check(out):
        label = "cli zeta %s %s" % (key, delta_name)
        table = {}
        for r in _read_csv(out / "zeta_partials.csv"):
            table[(r["variant"], float(r["s"]), int(r["N"]))] = \
                float(r["partial"])
        partials = {v: [[table[(v, s, N)] for N in schedule] for s in GRID]
                    for v in ("full", "low", "pb")}
        zp = SimpleNamespace(s_grid=GRID, schedule=schedule,
                             partials=partials)
        report = _read_json(out / "zeta_report.json")
        reports = {v: SimpleNamespace(bracket=tuple(r["bracket"]))
                   for v, r in report["abscissa"].items() if r["applicable"]}
        _check_partials(label, key, delta_name, zp, reports)
    return check


def check_cli_laplacian(size, uniform_k=None, depth=None):
    def check(out):
        label = "cli laplacian"
        report = _read_json(out / "laplacian_report.json")
        inv = report["invariants"]
        ck.equal(label + " size", report["size"], size)
        ck.equal(label + " invariants",
                 (inv["row_ok"], inv["adjoint_ok"], inv["max_row_sum"],
                  inv["max_self_adjoint_defect"], inv["route_difference"]),
                 (True, True, 0.0, 0.0, 0.0))
        if "pb" in report:
            ck.equal(label + " pb difference",
                     report["pb"]["max_abs_difference_from_full"], 0.0)
        eig = [float(r["eigenvalue"]) for r in _read_csv(out / "spectrum.csv")]
        ck.kernel_dimension(label, eig)
        if uniform_k is not None:
            ck.spectrum_matches(label + " spectrum", eig,
                                ref.uniform_full_shift_spectrum(uniform_k,
                                                                depth))
    return check


# ---------------------------------------------------------------------------
# the workloads


def build(workload, seed, lib, ctx):
    """The operation list of one workload, with its inputs drawn from seed."""
    rng = random.Random("%s/%d" % (workload, seed))

    def fractions(count):
        return [(rng.random(), rng.random()) for _ in range(count)]

    def vector(key, N):
        return rational_vector(rng, ref_complexity(key, N)[N])

    families = ("exp", "harmonic", "powerlog:1.5,1", "geom:0.5")
    if workload == "window-language":
        return [
            lang_op(lib, "fib", 256),
            lang_op(lib, "tm", 128),
            lipschitz_tree_op(lib, "fib", 256, ("exp", "harmonic"), True),
            lipschitz_tree_op(lib, "tm", 128, ("exp", "harmonic"), False),
            zeta_table_op(lib, "fib", 256, families, (64, 128, 256)),
            zeta_table_op(lib, "tm", 128, families, (32, 64, 128)),
            distance_op(lib, "tm", 128, rng.getrandbits(64), fractions(1000),
                        100),
            laplacian_op(lib, "tm", 24, "random", 2, rng.getrandbits(32),
                         vector("tm", 24)),
            help_op(ctx, 2),
        ]
    if workload == "laplacian-dense":
        deltas = ("exp", "harmonic")
        return [
            lang_op(lib, "full2", 7),
            lang_op(lib, "full3", 4),
            lang_op(lib, "fib", 127),
            lipschitz_tree_op(lib, "full2", 7, deltas, True),
            lipschitz_tree_op(lib, "full3", 4, deltas, True),
            lipschitz_tree_op(lib, "fib", 127, deltas, True),
            zeta_table_op(lib, "full2", 7, families, (2, 4, 7)),
            zeta_table_op(lib, "full3", 4, families, (2, 3, 4)),
            zeta_table_op(lib, "fib", 127, families, (32, 64, 127)),
            distance_op(lib, "fib", 127, rng.getrandbits(64), fractions(1000),
                        100),
            laplacian_op(lib, "full2", 7, "uniform", 2, None,
                         vector("full2", 7)),
            laplacian_op(lib, "full3", 4, "random", 2, rng.getrandbits(32),
                         vector("full3", 4)),
            laplacian_op(lib, "fib", 127, "random", 1, rng.getrandbits(32),
                         vector("fib", 127)),
            help_op(ctx, 2),
        ]
    if workload == "closed-form-deep":
        # depths drawn a little below each power of two; cost moves < 1 %
        depths = [b - rng.randrange(16) for b in (2048, 4096, 8192, 16384)]
        deltas = ("exp", "harmonic", "powerlog:1.5,1")
        deep = (4096, 8192, 16384)
        # the table-based analyses are kept to a few per cent of a pass, so
        # that a words change leaves this workload nearly unmoved
        return [
            lang_op(lib, "fib", 64),
            lang_op(lib, "full2", 12),
            lipschitz_tree_op(lib, "full2", 12, ("exp", "harmonic"), True),
        ] + [lipschitz_fast_op(lib, key, depths, deltas)
             for key in ("full2", "full3", "fib", "linear", "pow2")] + [
            zeta_spec_op(lib, "full2", "harmonic", deep),
            zeta_spec_op(lib, "full3", "powerlog:1.5,1", deep),
            zeta_spec_op(lib, "fib", "harmonic", deep),
            zeta_spec_op(lib, "linear", "exp", deep),
            zeta_spec_op(lib, "full2", "geom:0.5", (16, 32, 64)),
            distance_op(lib, "full2", 12, rng.getrandbits(64),
                        fractions(2000), 200),
            laplacian_op(lib, "full2", 6, "uniform", 2, None,
                         vector("full2", 6)),
            help_op(ctx, 2),
        ]
    if workload == "cli-commands":
        tm = "subst:a=ab,b=ba,seed=a"
        return [
            # the four README commands
            cli_op(ctx, "readme-lang", "lang",
                   ["lang", "--spec", "sturmian:cf=1,1,1,...", "--depth",
                    "64"], check_cli_lang("fib", 64)),
            cli_op(ctx, "readme-lipschitz", "lipschitz",
                   ["lipschitz", "--spec", "full:2", "--delta", "exp",
                    "--depth", "4096"],
                   check_cli_lipschitz("full2", "exp",
                                       (512, 1024, 2048, 4096))),
            cli_op(ctx, "readme-zeta", "zeta",
                   ["zeta", "--spec", "sturmian:cf=1", "--delta", "harmonic",
                    "--depth", "1024", "--schedule", "256,512,1024"],
                   check_cli_zeta("fib", "harmonic", (256, 512, 1024))),
            cli_op(ctx, "readme-laplacian", "laplacian",
                   ["laplacian", "--spec", "full:2", "--depth", "6", "--rho",
                    "2", "--delta", "harmonic", "--measure", "random",
                    "--seed", str(rng.randrange(1000)), "--pb"],
                   check_cli_laplacian(64)),
            cli_op(ctx, "subst-lipschitz", "lipschitz",
                   ["lipschitz", "--spec", tm, "--delta", "exp", "--depth",
                    "128"],
                   check_cli_lipschitz("tm", "exp", (16, 32, 64, 128)),
                   tag="lipschitz-tables"),
            cli_op(ctx, "subst-lang", "lang",
                   ["lang", "--spec", tm, "--depth", "64"],
                   check_cli_lang("tm", 64)),
            cli_op(ctx, "laplacian-pb", "laplacian",
                   ["laplacian", "--spec", "full:2", "--depth", "5", "--pb"],
                   check_cli_laplacian(32, uniform_k=2, depth=5),
                   tag="laplacian-invariants"),
            distance_job_op(ctx, "distance-1", rng.getrandbits(32)),
            distance_job_op(ctx, "distance-2", rng.getrandbits(32)),
            help_op(ctx, 3),
            # exit code 2 is the contract for an invalid grid; today the
            # command divides by the step and dies with exit 1
            cli_op(ctx, "zeta-s-step-0", "error",
                   ["zeta", "--spec", "full:2", "--delta", "harmonic",
                    "--depth", "64", "--s-step", "0"], expect=2),
        ]
    raise ValueError("unknown workload %r" % workload)


def distance_job(lib, seed, out):
    """The fresh-interpreter distance run: full:2 at depth 10, 500 seeded
    leaf pairs, Dijkstra on the first 100.  Writes distances.json."""
    W, T = lib.words, lib.tree
    rng = random.Random(seed)
    tree = T.build_tree(W.language_table(W.FullShift(2), 10))
    tau_seed = rng.getrandbits(64)
    leaves = tree.leaves()
    pairs = [(rng.choice(leaves), rng.choice(leaves)) for _ in range(500)]
    dist, oracle = distance_queries(lib, tree, tau_seed, pairs, 100)
    with open(out / "distances.json", "w") as fh:
        json.dump({"pairs": pairs, "distances": dist, "dijkstra": oracle},
                  fh, sort_keys=True)
        fh.write("\n")
