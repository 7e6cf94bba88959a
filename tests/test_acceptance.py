"""End-to-end acceptance checks.

Each test covers one numbered criterion at its stated tolerance and prints
a single PASS/FAIL line so the suite output doubles as a checklist.
"""

import contextlib
import io
import math
import random
import time
from fractions import Fraction

import numpy as np

from ultratree.words import (FullShift, SturmianCF, complexity_profile,
                             fibonacci_spec, language_table,
                             repulsiveness_estimates, right_special_words)
from ultratree.tree import (DeltaSequence, approximation_graph,
                            choice_function)
from ultratree.metrics import (continuity_witness_fast, graph_distances,
                               lipschitz_estimate_fast, spectral_distance,
                               sup_spectral_distance, trend_verdict,
                               ultrametric_distance)
from ultratree.zeta import abscissa_estimate, level_profile, zeta_partials
from ultratree.laplacian import (assemble_laplacian,
                                 assemble_laplacian_dirichlet,
                                 assemble_pb_laplacian, check_invariants,
                                 cylinder_measure, matrix_difference,
                                 spectrum)
from ultratree.cli import main as cli_main

from oracles import (children_of, repulsiveness_bruteforce,
                     spectral_distance_range_bruteforce, tree_for)

SPECS = (FullShift(2), FullShift(3), fibonacci_spec(),
         SturmianCF((), ("linear",)))


def report(number, description, ok):
    print("\n%s: criterion %d (%s)" % ("PASS" if ok else "FAIL", number,
                                       description))
    assert ok, "criterion %d failed: %s" % (number, description)


def test_criterion_1_closed_form_vs_graph_oracle():
    delta = DeltaSequence.exponential()
    start = time.time()
    worst = 0.0
    for spec in SPECS:
        tree = tree_for(spec, 10)
        tau = choice_function(tree, policy="seeded-random", seed=100)
        graph = approximation_graph(tree, tau, delta)
        reps = tree.leaves()  # every leaf represents itself
        rng = random.Random(7)
        pairs = []
        while len(pairs) < 200:
            x, y = rng.choice(reps), rng.choice(reps)
            if x != y:
                pairs.append((x, y))
        oracle = graph_distances(graph, pairs)
        for (x, y), dg in zip(pairs, oracle):
            dc = spectral_distance(tree, tau, delta, x, y)
            worst = max(worst, abs(dc - dg))
    elapsed = time.time() - start
    report(1, "closed form vs Dijkstra, 200 pairs x 4 specs, depth 10",
           worst <= 1e-12 and elapsed < 10.0)


def test_criterion_2_exhaustive_choice_extremes():
    delta = DeltaSequence.exponential()
    start = time.time()
    ok = True
    for spec in SPECS:
        tree = tree_for(spec, 4)
        leaves = tree.leaves()
        for i, x in enumerate(leaves):
            for y in leaves[i + 1:]:
                lo, hi = spectral_distance_range_bruteforce(tree, delta,
                                                            x, y)
                ok &= lo == ultrametric_distance(x, y, delta)
                ok &= hi == sup_spectral_distance(tree, delta, x, y)
    elapsed = time.time() - start
    report(2, "choice-function extremes = d and sup closed form, depth 4",
           ok and elapsed < 30.0)


def test_criterion_3_exponential_delta_bound():
    delta = DeltaSequence.exponential()
    bound = 1.0 / (math.e - 1.0) + 1e-9
    values = [lipschitz_estimate_fast(spec, delta, 4096).value
              for spec in SPECS]
    report(3, "C(4096) <= 1/(e-1) for all specs, exponential delta",
           all(v <= bound for v in values))


def test_criterion_4_sturmian_order_dichotomy():
    delta = DeltaSequence.harmonic()
    start = time.time()
    # bounded continued fraction: the Lipschitz constant 1 + 2 C(N)
    # flattens out by N = 8192
    fib_k = [1.0 + 2.0 * lipschitz_estimate_fast(fibonacci_spec(), delta,
                                                 N).value
             for N in (1024, 2048, 4096, 8192)]
    # mu_i = 2^i: the same diagnostic keeps jumping at its feasible depths
    pow2 = SturmianCF((), ("pow2",))
    pow2_k = [1.0 + 2.0 * lipschitz_estimate_fast(pow2, delta, N).value
              for N in (256, 512, 1024, 2048, 4096)]
    elapsed = time.time() - start
    report(4, "bounded/unbounded verdicts separate the two instances",
           trend_verdict(fib_k) == "yes"
           and trend_verdict(pow2_k) == "no"
           and elapsed < 60.0)


def test_criterion_5_non_continuity_construction():
    # adaptively chosen coefficients: mu_0 = 256 keeps the first block
    # within the feasible depth, mu_1 = ceil(e^{(1/2) q_1}) forces the
    # next-block doubling the construction demands
    spec = SturmianCF((256, int(math.exp(0.5 * 257))))
    delta = DeltaSequence.harmonic()
    N = 256
    w_small = continuity_witness_fast(spec, delta, N // 16).value
    w_large = continuity_witness_fast(spec, delta, N).value
    report(5, "W(N) > 2 W(N/16) for the adaptive coefficient sequence",
           w_large > 2.0 * w_small)


def test_criterion_6_sturmian_structure():
    specs = (fibonacci_spec(),
             SturmianCF((), ("constant", 2)),
             SturmianCF((), ("constant", 3)),
             SturmianCF((1, 2, 1, 2), ("constant", 2)),
             SturmianCF((2, 1), ("constant", 1)))
    ok = True
    for spec in specs:
        table = language_table(spec, 513)
        _, g = complexity_profile(table)
        ok &= all(g[n] == 1 for n in range(1, 513))
        ok &= all(len(right_special_words(table, n)) == 1
                  for n in range(1, 513))
    report(6, "g = 1 and one right-special word up to 512, five specs", ok)


def test_criterion_7_zeta_ordering():
    delta = DeltaSequence.harmonic()
    s_grid = [0.2 + 0.05 * i for i in range(57)]
    schedule = (1024, 2048, 4096)
    ok = True
    for spec in SPECS:
        partials = zeta_partials(spec, delta, s_grid, schedule)
        full = partials.partials["full"]
        low = partials.partials["low"]
        pb = partials.partials["pb"]
        for i in range(len(s_grid)):
            for j in range(len(schedule)):
                f, l, p = full[i][j], low[i][j], pb[i][j]
                if math.isinf(f):
                    ok &= math.isinf(l) or l <= f
                    continue
                ok &= p <= l + 1e-12 and l <= f + 1e-12
        if spec in (FullShift(2), fibonacci_spec(),
                    SturmianCF((), ("linear",))):
            ok &= full == low  # binary branching: exact equality
    report(7, "Z_PB <= Z_low <= Z on the grid; binary equality", ok)


def test_criterion_8_abscissa_brackets():
    fib = zeta_partials(fibonacci_spec(), DeltaSequence.harmonic(),
                        [0.2 + 0.05 * i for i in range(57)],
                        (1024, 2048, 4096))
    rep_fib = abscissa_estimate(fib)["low"]
    lo, hi = rep_fib.bracket
    ok = lo is not None and hi is not None and lo <= 1.0 <= hi \
        and hi - lo <= 0.2
    full = zeta_partials(FullShift(2), DeltaSequence.geometric(0.5),
                         [0.2 + 0.05 * i for i in range(57)],
                         (16, 32, 64))
    lo2, hi2 = abscissa_estimate(full)["full"].bracket
    ok &= lo2 is not None and hi2 is not None and lo2 <= 1.0 <= hi2
    report(8, "abscissa brackets contain 1.0 (Fibonacci and full binary)",
           ok)


def _mild_weights(tree, seed):
    rng = random.Random(seed)
    out = {}
    for n in range(tree.depth):
        for v in tree.levels[n]:
            raw = [rng.randint(50, 100) for _ in children_of(tree)[v]]
            total = sum(raw)
            out[v] = [Fraction(r, total) for r in raw]
    return out


def test_criterion_9_laplacian_invariants():
    delta = DeltaSequence.harmonic()
    caps = {FullShift(2): 8, FullShift(3): 5, fibonacci_spec(): 8,
            SturmianCF((), ("linear",)): 8}
    count = 0
    worst_row = worst_adj = worst_diff = 0.0
    worst_eig = 0.0
    kernel_ok = True
    for spec in SPECS:
        for N in range(2, caps[spec] + 1):
            tree = tree_for(spec, N)
            for i in range(2):
                wts = None if i == 0 else _mild_weights(tree, 1000 + N + i)
                mu = cylinder_measure(tree, weights=wts)
                rho = (N + i) % 3
                lap = assemble_laplacian(tree, mu, rho, delta)
                oracle = assemble_laplacian_dirichlet(tree, mu, rho, delta)
                checks = check_invariants(lap)
                worst_row = max(worst_row, checks["max_row_sum"])
                worst_adj = max(worst_adj,
                                checks["max_self_adjoint_defect"])
                worst_diff = max(worst_diff,
                                 matrix_difference(lap, oracle))
                kernel_ok &= all(sum(row) == 0 for row in lap.rows)
                worst_eig = min(worst_eig, float(spectrum(lap)[0]))
                count += 1
    report(9, "50 random configurations meet all operator invariants",
           count == 50 and worst_row <= 1e-12 and worst_adj <= 1e-12
           and worst_eig >= -1e-10 and kernel_ok and worst_diff <= 1e-10)


def test_criterion_10_pb_equivalence():
    delta = DeltaSequence.harmonic()
    tree = tree_for(fibonacci_spec(), 8)
    mu = cylinder_measure(tree, weights="random", seed=77)
    full = assemble_laplacian(tree, mu, 2, delta)
    pb = assemble_pb_laplacian(tree, mu, 2, delta)
    ok = matrix_difference(full, pb) <= 1e-12
    small = tree_for(FullShift(2), 1)
    lap = assemble_laplacian(small, cylinder_measure(small), 2,
                             DeltaSequence.table([1.0]))
    ev = spectrum(lap)
    ok &= abs(ev[0]) <= 1e-12 and abs(ev[1] - 4.0) <= 1e-12
    report(10, "PB = full on Fibonacci; 2x2 example spectrum {0, 4}", ok)


def test_criterion_11_repulsiveness_estimators():
    ok = True
    for spec in SPECS:
        table = language_table(spec, 10)
        l_hat, l_hat_r, _ = repulsiveness_estimates(table)
        ok &= l_hat <= l_hat_r
    full_table = language_table(FullShift(2), 8)
    ok &= repulsiveness_estimates(full_table)[0] == 1.0 / 7.0
    # the restricted estimate stays strictly positive and its change over
    # the last doubling falls under the 1% flatness threshold used for
    # trend verdicts elsewhere
    series = []
    for N in (256, 512, 1024):
        table = language_table(fibonacci_spec(), N)
        series.append(repulsiveness_estimates(table)[1])
    ok &= all(v > 0 for v in series)
    ok &= abs(series[-1] - series[-2]) / series[-2] < 0.01
    table64 = language_table(fibonacci_spec(), 64)
    brute = repulsiveness_bruteforce(table64, right_special_only=True)[0]
    ok &= repulsiveness_estimates(table64)[1] == brute
    report(11, "repulsiveness ordering, exact values, stabilization", ok)


def test_criterion_12_cli_determinism(tmp_path):
    jobs = (
        ["lang", "--spec", "sturmian:cf=1", "--depth", "24"],
        ["lipschitz", "--spec", "full:2", "--delta", "exp",
         "--depth", "64"],
        ["zeta", "--spec", "full:2", "--delta", "geom:0.5",
         "--depth", "64", "--schedule", "16,32,64"],
        ["laplacian", "--spec", "full:3", "--depth", "3",
         "--delta", "harmonic", "--measure", "random", "--seed", "5",
         "--pb"],
    )
    ok = True
    for k, job in enumerate(jobs):
        contents = []
        for run in ("a", "b"):
            out = tmp_path / ("%d%s" % (k, run))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli_main(job + ["--out", str(out)]) == 0
            blob = {p.name: p.read_bytes()
                    for p in sorted(out.iterdir())}
            contents.append(blob)
        ok &= contents[0] == contents[1]
    report(12, "fixed-seed CLI reruns are byte-identical", ok)
