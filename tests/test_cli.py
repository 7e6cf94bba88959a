import csv
import hashlib
import importlib
import json
import os
import random
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest

from ultratree import cli, laplacian, words
from ultratree.cli import ConfigError, main, parse_delta, parse_schedule, \
    parse_spec
from ultratree.laplacian import (InvariantViolationError, assemble_laplacian,
                                 cylinder_measure)
from ultratree.tree import DeltaSequence, build_tree
from ultratree.words import ExplicitWindow, FullShift, SturmianCF, \
    Substitution, language_table


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# parsing


def test_parse_spec():
    assert parse_spec("full:3") == FullShift(3)
    assert parse_spec("sturmian:cf=1") == SturmianCF((1,), ("constant", 1))
    assert parse_spec("sturmian:cf=1,2,...") == \
        SturmianCF((1, 2), ("constant", 2))
    assert parse_spec("sturmian:cf=linear") == SturmianCF((), ("linear",))
    assert parse_spec("sturmian:cf=pow2") == SturmianCF((), ("pow2",))
    assert parse_spec("window:abab") == ExplicitWindow("abab")
    assert parse_spec("subst:a=ab,b=ba,seed=a") == \
        Substitution.from_rules({"a": "ab", "b": "ba"}, "a")
    for bad in ("bogus:1", "full:x", "sturmian:1,2", "window:",
                "sturmian:cf=..."):
        with pytest.raises(ConfigError):
            parse_spec(bad)


def test_parse_delta(tmp_path):
    assert parse_delta("exp").name == "exponential"
    assert parse_delta("geom:0.25")[1] == 0.25
    table = tmp_path / "delta.txt"
    table.write_text("1.0\n0.5\n0.2\n")
    assert parse_delta("table:%s" % table)[2] == 0.2
    with pytest.raises(ConfigError):
        parse_delta("table:/no/such/file")
    with pytest.raises(ConfigError):
        parse_delta("fibonacci")


def test_parse_schedule():
    assert parse_schedule(None, 64) == (8, 16, 32, 64)
    assert parse_schedule("4,8,16", 16) == (4, 8, 16)
    with pytest.raises(ConfigError):
        parse_schedule("8,4", 16)
    with pytest.raises(ConfigError):
        parse_schedule("8,32", 16)
    with pytest.raises(ConfigError):
        parse_schedule("0,4", 16)
    # the default never goes past the depth
    assert parse_schedule(None, 1) == (1,)
    assert parse_schedule(None, 2) == (2,)


# ---------------------------------------------------------------------------
# commands


def test_lang_command(tmp_path):
    out = str(tmp_path / "lang")
    assert main(["lang", "--spec", "full:2", "--depth", "5",
                 "--out", out]) == 0
    rows = read_csv(out + "/language.csv")
    assert rows[0] == ["n", "P", "g", "right_special"]
    assert [r[1] for r in rows[1:]] == [str(2 ** n) for n in range(6)]
    report = read_json(out + "/language_report.json")
    assert report["version"]
    assert "edge_length_convention" in report


def test_lang_sturmian_g_column(tmp_path):
    out = str(tmp_path / "stur")
    assert main(["lang", "--spec", "sturmian:cf=1,1,1,...", "--depth", "32",
                 "--out", out]) == 0
    rows = read_csv(out + "/language.csv")
    assert all(r[2] == "1" for r in rows[1:-1])


def test_lang_window_repetitivity_not_found(tmp_path):
    out = str(tmp_path / "win")
    assert main(["lang", "--spec", "window:abcabc", "--depth", "4",
                 "--out", out]) == 0
    report = read_json(out + "/language_report.json")
    # no length-4 factor contains all three of them
    assert report["repetitivity"]["4"] is None


def test_lipschitz_command(tmp_path):
    out = str(tmp_path / "lip")
    assert main(["lipschitz", "--spec", "full:2", "--delta", "exp",
                 "--depth", "64", "--out", out]) == 0
    rows = read_csv(out + "/lipschitz.csv")
    for row in rows[1:]:
        assert float(row[1]) <= 0.582
    report = read_json(out + "/lipschitz_report.json")
    assert set(report["bounded_trend"]) == {"C", "W", "K"}


def test_lipschitz_builds_one_table(tmp_path, monkeypatch):
    calls = []
    original = language_table

    def counted(spec, N):
        calls.append(N)
        return original(spec, N)

    # wherever a module holds the name, as the benchmark's tracer does
    for name in ("words", "tree", "metrics", "zeta", "laplacian", "cli"):
        module = importlib.import_module("ultratree." + name)
        if getattr(module, "language_table", None) is original:
            monkeypatch.setattr(module, "language_table", counted)
    assert main(["lipschitz", "--spec", "subst:a=ab,b=ba,seed=a", "--depth",
                 "64", "--out", str(tmp_path / "lip")]) == 0
    assert calls == []
    assert len(read_csv(str(tmp_path / "lip" / "lipschitz.csv"))) == 5
    assert main(["zeta", "--spec", "subst:a=ab,b=ba,seed=a", "--depth", "64",
                 "--out", str(tmp_path / "zeta")]) == 0
    assert calls == []


def test_zeta_command(tmp_path):
    out = str(tmp_path / "zeta")
    assert main(["zeta", "--spec", "sturmian:cf=1", "--delta", "harmonic",
                 "--depth", "1024", "--schedule", "256,512,1024",
                 "--out", out]) == 0
    report = read_json(out + "/zeta_report.json")
    lo, hi = report["abscissa"]["low"]["bracket"]
    assert lo <= 1.0 <= hi


def test_laplacian_command(tmp_path):
    out = str(tmp_path / "lap")
    assert main(["laplacian", "--spec", "full:2", "--depth", "1",
                 "--rho", "2", "--delta", "geom:0.5", "--out", out]) == 0
    # the table starts at delta_0 = 1 only for a custom table; geom has
    # delta_0 = 1 as well, so the 2x2 example applies
    rows = read_csv(out + "/spectrum.csv")
    assert [float(r[1]) for r in rows[1:]] == [0.0, 4.0]
    report = read_json(out + "/laplacian_report.json")
    assert report["invariants"]["row_ok"]
    assert report["invariants"]["route_difference"] == 0.0
    assert report["spectrum"] == {"blocks": 1, "largest_block": 1}


def test_laplacian_matrix_values_are_plain_floats(tmp_path):
    out = str(tmp_path / "lap")
    assert main(["laplacian", "--spec", "full:2", "--depth", "3",
                 "--rho", "2", "--delta", "harmonic", "--out", out]) == 0
    tree = build_tree(language_table(FullShift(2), 3))
    lap = assemble_laplacian(tree, cylinder_measure(tree), 2,
                             DeltaSequence.harmonic())
    rows = read_csv(out + "/laplacian_matrix.csv")
    assert rows[0] == ["i", "j", "value"]
    assert len(rows) > 1
    for i, j, value in rows[1:]:
        assert float(value) == float(lap.rows[int(i)][int(j)])


def test_laplacian_pb_and_measure_file(tmp_path):
    measure = tmp_path / "measure.json"
    weights = {"": ["1/3", "2/3"], "a": ["1/2", "1/2"],
               "b": ["1/4", "3/4"]}
    measure.write_text(json.dumps(weights))
    out = str(tmp_path / "lap")
    assert main(["laplacian", "--spec", "sturmian:cf=1", "--depth", "6",
                 "--delta", "harmonic", "--measure", "random",
                 "--seed", "4", "--pb", "--out", out]) == 0
    report = read_json(out + "/laplacian_report.json")
    assert report["pb"]["max_abs_difference_from_full"] == 0.0
    # a Sturmian tree forks once per level, in two
    assert report["spectrum"] == {"blocks": 6, "largest_block": 1}
    out2 = str(tmp_path / "lap2")
    assert main(["laplacian", "--spec", "full:2", "--depth", "2",
                 "--delta", "harmonic",
                 "--measure", "file:%s" % measure, "--out", out2]) == 0
    index = read_json(out2 + "/index_map.json")
    assert index["0"] == "aa"


@pytest.mark.parametrize("spec, depth", (
    ("subst:a=ab,b=ba", 12), ("sturmian:cf=1", 12),
    ("window:aabacbcabaabacbcab", 4)))
def test_laplacian_builds_no_word_levels(tmp_path, monkeypatch, spec, depth):
    def refuse(*args):
        raise AssertionError("the word levels were read")

    # a measure file gives weights at the branching words alone
    forks = build_tree(language_table(parse_spec(spec), depth)).forks
    weights = {v: ["%d/%d" % (i, len(b) * (len(b) - 1) // 2)
                   for i in range(1, len(b))] for v, b in forks.items()}
    measure = tmp_path / "measure.json"
    measure.write_text(json.dumps(weights))
    monkeypatch.setattr(words, "_tree_of_words", refuse)
    for name in ("uniform", "random", "file:%s" % measure):
        out = str(tmp_path / name.replace("/", "_"))
        assert main(["laplacian", "--spec", spec, "--depth", str(depth),
                     "--measure", name, "--seed", "3", "--out", out]) == 0
        assert read_json(out + "/laplacian_report.json")["invariants"][
            "route_difference"] == 0.0


@pytest.mark.parametrize("spec, depth", (
    ("sturmian:cf=1", 64), ("subst:a=ab,b=ba", 32), ("full:2", 8),
    # a window shorter than the depth: every leaf is short
    ("window:abaababaabaab", 20)))
def test_lang_builds_no_word_levels(tmp_path, monkeypatch, spec, depth):
    def refuse(*args):
        raise AssertionError("the word levels were built")

    # lang reads its statistics from the sorted leaves and their neighbour
    # LCPs, and so do the statistics it leaves out
    monkeypatch.setattr(words, "_tree_of_words", refuse)
    out = str(tmp_path / "lang")
    assert main(["lang", "--spec", spec, "--depth", str(depth),
                 "--out", out]) == 0
    table = language_table(parse_spec(spec), depth)
    words.complexity_profile(table)
    for n in range(depth):
        words.right_special_words(table, n)
    assert "levels" not in vars(table)
    assert any(len(v) < depth for v in table.sorted_leaves) == \
        spec.startswith("window:")


def test_json_format_series(tmp_path):
    out = str(tmp_path / "fmt")
    assert main(["lang", "--spec", "full:2", "--depth", "3",
                 "--format", "json", "--out", out]) == 0
    data = read_json(out + "/language.json")
    assert data[0]["P"] == 1


def test_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "err")
    assert main(["lang", "--spec", "bogus:2", "--depth", "3",
                 "--out", out]) == 2
    assert main(["laplacian", "--spec", "full:2", "--depth", "2",
                 "--delta", "harmonic", "--measure", "nope",
                 "--out", out]) == 2
    assert main(["lipschitz", "--spec", "full:2", "--delta", "geom:2.0",
                 "--depth", "8", "--out", out]) == 2
    # the window's word "b" does not extend to depth 2: a problem with the
    # input, not an internal invariant
    capsys.readouterr()
    assert main(["lipschitz", "--spec", "window:aab", "--depth", "2",
                 "--out", out]) == 2
    assert "'b'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["lang", "--spec", "full:2"])
    assert exc.value.code == 2


def test_invariant_violation_exits_3(tmp_path, capsys, monkeypatch):
    # main names InvariantViolationError only once the laplacian layer is
    # loaded, as cmd_laplacian loads it
    def violated(lap, tol=1e-12):
        raise InvariantViolationError("row sums off")

    monkeypatch.setattr(laplacian, "check_invariants", violated)
    out = tmp_path / "lap"
    assert main(["laplacian", "--spec", "full:2", "--depth", "2",
                 "--out", str(out)]) == 3
    assert capsys.readouterr().err == "invariant violation: row sums off\n"
    assert not out.exists()


@pytest.mark.parametrize("grid", (["--s-step", "0"], ["--s-step", "-0.1"],
                                  ["--s-min", "2", "--s-max", "1"]))
def test_zeta_empty_s_grid_is_refused(tmp_path, capsys, grid):
    out = tmp_path / "zeta"
    assert main(["zeta", "--spec", "full:2", "--delta", "harmonic",
                 "--depth", "16", "--out", str(out)] + grid) == 2
    assert "s grid" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", (
    ["--s-max", "inf"], ["--s-min=-inf"], ["--s-max", "nan"],
    ["--s-step", "inf"], ["--s-step", "1e-300"],
    ["--s-min=-1e308", "--s-max=1e308"]))
def test_zeta_unbounded_s_grid_is_refused(tmp_path, capsys, grid):
    out = tmp_path / "zeta"
    assert main(["zeta", "--spec", "full:2", "--depth", "8",
                 "--out", str(out)] + grid) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "s grid" in err
    assert not out.exists()


def test_zeta_refuses_a_window_that_is_no_tree(tmp_path, capsys):
    # the dead end "b" makes g(1) = 0, so pb would pass low at s = 0.2;
    # zeta refuses it as lipschitz and laplacian do, and lang reports it
    for command in ("zeta", "lipschitz", "laplacian"):
        out = tmp_path / command
        assert main([command, "--spec", "window:aab", "--depth", "2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: word 'b' at length 1 has no extension\n")
        assert not out.exists()
    out = tmp_path / "lang"
    assert main(["lang", "--spec", "window:aab", "--depth", "2",
                 "--out", str(out)]) == 0
    assert [row[2] for row in read_csv(out / "language.csv")[1:3]] == [
        "1", "0"]


@pytest.mark.parametrize("delta, reason", (
    ("powerlog:1", None), ("powerlog:1,2,3", None), ("powerlog:", None),
    ("geom:x", None), ("powerlog:nan,1", "need a > 0 and b >= 0"),
    ("powerlog:1,nan", "need a > 0 and b >= 0"),
    ("geom:nan", "geometric ratio must be in (0, 1)")))
def test_malformed_delta_is_refused_by_name(tmp_path, capsys, delta, reason):
    out = tmp_path / "zeta"
    assert main(["zeta", "--spec", "full:2", "--delta", delta, "--depth",
                 "8", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad delta %r: " % delta)
    assert err.count("\n") == 1 and "Traceback" not in err
    if reason is not None:
        assert err == "error: bad delta %r: %s\n" % (delta, reason)
    assert not out.exists()


def test_zeta_s_grid_step_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "MAX_S_STEPS", 4)
    argv = ["zeta", "--spec", "full:2", "--depth", "8", "--s-min", "0",
            "--s-max", "1"]
    # the limit is inclusive
    assert main(argv + ["--s-step", "0.25", "--out", str(tmp_path)]) == 0
    # three variants, five exponents, the schedule 2, 4, 8
    assert len(read_csv(tmp_path / "zeta_partials.csv")) == 1 + 3 * 5 * 3
    assert main(argv + ["--s-step", "0.2", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("rho", ("nan", "inf"))
def test_non_finite_rho_is_refused(tmp_path, capsys, rho):
    out = tmp_path / "lap"
    assert main(["laplacian", "--spec", "full:2", "--depth", "2", "--rho",
                 rho, "--out", str(out)]) == 2
    assert "density exponent must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_rho_above_limit_is_refused(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the table was built")

    argv = ["laplacian", "--spec", "full:2", "--depth", "2", "--rho"]
    with monkeypatch.context() as patch:
        patch.setattr(words, "language_table", refuse)
        patch.setattr(words, "_tree_of_words", refuse)
        patch.setattr(words, "_shape", refuse)
        for rho in ("65", "1e7"):
            out = tmp_path / ("lap" + rho)
            assert main(argv + [rho, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "limit of 64" in err
            assert not out.exists()
    # the limit is inclusive
    assert main(argv + ["64", "--out", str(tmp_path / "lap64")]) == 0


@pytest.mark.parametrize("command", (
    ["lang"], ["lipschitz"], ["zeta"], ["laplacian"]))
def test_sturmian_constant_tail_below_one_is_refused(tmp_path, capsys,
                                                     command):
    out = tmp_path / "cf0"
    assert main(command + ["--spec", "sturmian:cf=0", "--depth", "8",
                           "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad spec") and "below 1" in err
    assert not out.exists()


def test_non_integer_rho_passes_its_invariants(tmp_path):
    # float entries reach 5e10 here, so the row sums round to about 4e-7
    # in absolute terms while staying near 1e-16 of the terms they cancel
    out = tmp_path / "lap"
    assert main(["laplacian", "--spec", "full:2", "--depth", "7", "--rho",
                 "0.5", "--measure", "random", "--seed", "1",
                 "--out", str(out)]) == 0
    checks = read_json(str(out / "laplacian_report.json"))["invariants"]
    assert checks["row_ok"] and checks["adjoint_ok"]
    assert checks["max_row_sum"] > 1e-12


@pytest.mark.parametrize("command", ("lang", "lipschitz", "zeta"))
def test_seed_is_a_laplacian_option(tmp_path, command):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--spec", "full:2", "--depth", "4", "--seed", "3",
              "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("argv, config", (
    (["lang", "--spec", "full:2", "--depth", "3"],
     {"spec": "full:2", "depth": 3, "format": "csv"}),
    (["lipschitz", "--spec", "full:2", "--depth", "8", "--schedule", "4,8"],
     {"spec": "full:2", "delta": "exp", "depth": 8, "schedule": "4,8",
      "format": "csv"}),
    (["zeta", "--spec", "full:2", "--depth", "8", "--format", "json"],
     {"spec": "full:2", "delta": "exp", "depth": 8, "s_min": 0.2,
      "s_max": 3.0, "s_step": 0.05, "format": "json"}),
    (["laplacian", "--spec", "full:2", "--depth", "2", "--pb"],
     {"spec": "full:2", "delta": "exp", "depth": 2, "seed": 0, "rho": 2.0,
      "measure": "uniform", "pb": "single", "format": "csv"}),
))
def test_report_config_is_the_command_line(tmp_path, argv, config):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    report, = tmp_path.glob("*_report.json")
    assert read_json(report)["config"] == config


def test_short_delta_table_is_refused(tmp_path, capsys):
    table = tmp_path / "delta.txt"
    table.write_text("1.0\n0.5\n0.2\n")
    out = tmp_path / "lip"
    assert main(["lipschitz", "--spec", "full:2", "--delta",
                 "table:%s" % table, "--depth", "16", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "3 values" in err and "depth 16" in err
    assert not out.exists()
    # a table covering the depth runs
    assert main(["lipschitz", "--spec", "full:2", "--delta",
                 "table:%s" % table, "--depth", "3", "--out", str(out)]) == 0


@pytest.mark.parametrize("delta, table, message", (
    # a nan log at 0: -inf * log(1)
    ("powerlog:inf,0", None, "delta is not finite at 0"),
    # -1e308 * log(7) is past the float range
    ("powerlog:1e308,1", None, "delta is not finite at 6"),
    ("table", (1, 0.5, 0.5, 0.1, 0.05, 0.02, 0.01, 0.005),
     "delta is not strictly decreasing at 2"),
    ("table", (1, 0.5, 0.2, 0.1, 0.05, "inf", 0.01, 0.005),
     "delta is not finite at 5")))
def test_delta_log_refusals_keep_their_messages(tmp_path, capsys, delta,
                                                table, message):
    if table is not None:
        path = tmp_path / "delta.txt"
        path.write_text("".join("%s\n" % v for v in table))
        delta = "table:%s" % path
    out = tmp_path / "zeta"
    assert main(["zeta", "--spec", "full:2", "--delta", delta, "--depth",
                 "8", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not out.exists()


def test_out_naming_a_file_is_refused(tmp_path, capsys):
    out = tmp_path / "file"
    out.write_text("")
    assert main(["lang", "--spec", "full:2", "--depth", "2",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert out.read_text() == ""


def test_delta_underflow_is_refused(tmp_path, capsys):
    out = tmp_path / "lap"
    assert main(["laplacian", "--spec", "full:1", "--depth", "200",
                 "--delta", "geom:0.01", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "delta_162" in err and "Traceback" not in err
    assert not out.exists()


def finite_rows(path):
    rows = read_csv(path)[1:]
    assert rows and all(0 < float(r[1]) < float("inf") and
                        0 < float(r[2]) < float("inf") for r in rows)
    return rows


# the last delta of each run underflows to 0.0 as a float (geom:0.1 past
# index 323, geom:0.01 past 161); the engine reads only ratios of deltas
@pytest.mark.parametrize("argv", (
    ["--spec", "subst:a=ab,b=ba", "--depth", "400", "--delta", "geom:0.1"],
    ["--spec", "subst:a=abc,b=bc,c=a", "--depth", "200", "--delta",
     "geom:0.01"]))
def test_tree_delta_underflow_runs(tmp_path, argv):
    out = tmp_path / "lip"
    assert main(["lipschitz"] + argv + ["--out", str(out)]) == 0
    assert int(finite_rows(out / "lipschitz.csv")[-1][0]) == int(argv[3])


def test_tree_delta_past_smallest_normal_runs(tmp_path):
    # geom:0.01 passes the smallest normal float between delta_153 = 1e-306
    # and delta_154 = 1e-308, and a depth-N run reads delta_(N-1)
    argv = ["lipschitz", "--spec", "subst:a=ab,b=ba", "--delta", "geom:0.01"]
    last = []
    for depth in ("154", "155"):
        out = tmp_path / depth
        assert main(argv + ["--depth", depth, "--out", str(out)]) == 0
        last.append(finite_rows(out / "lipschitz.csv")[-1])
    assert [row[0] for row in last] == ["154", "155"]
    # one more level only adds chains
    assert float(last[0][1]) <= float(last[1][1])
    assert float(last[0][2]) <= float(last[1][2])


def test_explicit_window_depth_is_bounded(tmp_path, capsys):
    out = tmp_path / "lang"
    start = time.perf_counter()
    assert main(["lang", "--spec", "window:ab", "--depth", "100000000",
                 "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", (
    ["lipschitz", "--spec", "full:2"],
    ["zeta", "--spec", "subst:a=ab,b=ba"],
    ["lang", "--spec", "full:2"],
    ["laplacian", "--spec", "full:2"]))
@pytest.mark.parametrize("depth", ("99999999999999999999", str(sys.maxsize)),
                         ids=("twenty-digits", "maxsize"))
def test_depth_past_the_index_size_is_refused(tmp_path, capsys, command,
                                              depth):
    # "a" * depth and (True,) * (depth + 1) would raise OverflowError
    out = tmp_path / "deep"
    assert main(command + ["--depth", depth, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: depth %s exceeds the limit of %d\n" % (depth,
                                                       sys.maxsize - 1))
    assert not out.exists()


def test_depth_at_the_limit_runs(tmp_path):
    # full:1 has no branching word, so its chain is empty at any depth
    out = tmp_path / "limit"
    assert main(["lipschitz", "--spec", "full:1", "--depth",
                 str(sys.maxsize - 1), "--out", str(out)]) == 0
    assert read_csv(out / "lipschitz.csv")[-1][0] == str(sys.maxsize - 1)


@pytest.mark.parametrize("command, delta", (
    ("lipschitz", ("1", "nan", "0.5")),
    ("lipschitz", ("inf", "1", "0.5")),
    ("zeta", ("1", "nan", "0.5")),
    ("lipschitz", "powerlog:1,inf"),
    ("lipschitz", "powerlog:1e-300,5"),
    ("lipschitz", "powerlog:0.5,1e5"),
), ids=("nan-entry", "inf-entry", "zeta-nan-entry", "powerlog-inf-b",
        "powerlog-tiny-a", "powerlog-large-b"))
def test_non_finite_delta_is_refused(tmp_path, capsys, command, delta):
    if isinstance(delta, tuple):
        table = tmp_path / "delta.txt"
        table.write_text("\n".join(delta) + "\n")
        delta = "table:%s" % table
    out = tmp_path / "run"
    assert main([command, "--spec", "full:2", "--depth", "3", "--delta",
                 delta, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ("lang", "laplacian"))
def test_oversized_full_shift_is_refused(tmp_path, capsys, command):
    out = tmp_path / "big"
    assert main([command, "--spec", "full:2", "--depth", "800",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1048576 words" in err
    assert not out.exists()


def test_full_shift_letter_cap_is_refused(tmp_path, capsys):
    out = tmp_path / "long"
    assert main(["lang", "--spec", "full:1", "--depth", "100000",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: table of 5000050000 letters exceeds the limit of "
                   "1073741824\n")
    assert not out.exists()
    # 11,585 and 11,586 were refused by a cap on full shifts alone, which
    # only full:1 reached before the table cap
    for depth in ("11585", "11586"):
        out = tmp_path / depth
        assert main(["lang", "--spec", "full:1", "--depth", depth,
                     "--out", str(out)]) == 0
        assert len(read_csv(out / "language.csv")) == 2 + int(depth)


def test_laplacian_leaf_limit(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the measure was built")

    out = tmp_path / "lap"
    with monkeypatch.context() as patch:
        patch.setattr(laplacian, "cylinder_measure", refuse)
        assert main(["laplacian", "--spec", "full:2", "--depth", "12",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "4096 leaves" in err
    assert not out.exists()
    # the limit is inclusive
    monkeypatch.setattr(cli, "MAX_LAPLACIAN_LEAVES", 4)
    assert main(["laplacian", "--spec", "full:2", "--depth", "2",
                 "--out", str(out)]) == 0
    assert main(["laplacian", "--spec", "full:2", "--depth", "3",
                 "--out", str(tmp_path / "lap3")]) == 2
    assert "8 leaves" in capsys.readouterr().err
    # the count comes from the closed form or the sorted leaves, before any
    # levels or forks: these tables would hold about 9.0e9 and 1.1e9 letters
    monkeypatch.setattr(words, "language_table", refuse)
    monkeypatch.setattr(words, "_tree_of_words", refuse)
    monkeypatch.setattr(words, "_shape", refuse)
    for spec, depth, count in (("sturmian:cf=1", "3000", 3001),
                               ("subst:a=ab,b=ba", "1024", 3070)):
        out = tmp_path / ("lap" + depth)
        assert main(["laplacian", "--spec", spec, "--depth", depth,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "%d leaves" % count in err
        assert not out.exists()


def test_sturmian_leaf_count_is_one_level(tmp_path, capsys):
    # N + 1 leaves, counted without the N + 1 levels of a level profile
    out = tmp_path / "lap"
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["laplacian", "--spec", "sturmian:cf=1", "--depth",
                     "10000000", "--out", str(out)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and err == ("error: laplacian of 10000001 leaves "
                                 "exceeds the limit of 2048\n")
    assert peak < 2 ** 20 and elapsed < 1.0
    assert not out.exists()


def limited_run(argv, limit=2 ** 30):
    """Run the CLI in a fresh interpreter whose address space is capped, so
    that a run which outgrows the cap fails fast; the finished process."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-m", "ultratree.cli", *argv],
                          env=env, preexec_fn=cap, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("command", (
    ["lipschitz"], ["zeta", "--delta", "harmonic"]))
def test_thue_morse_at_depth_2048_runs_in_1_gb(tmp_path, command):
    # its table would hold about 9e9 letters; the sorted leaves hold 12 MB
    out = tmp_path / "deep"
    assert limited_run(command + ["--spec", "subst:a=ab,b=ba", "--depth",
                                  "2048", "--out", str(out)]).returncode == 0
    assert all(os.path.getsize(out / name) > 0 for name in os.listdir(out))
    assert len(os.listdir(out)) == 2


def no_tree_window():
    """3000 random letters whose tree of words at depth 1500 is no tree:
    1489 of its 2990 sorted leaves are shorter than 1500."""
    rng = random.Random(7)
    return "".join(rng.choice("ab") for _ in range(3000))


def test_window_that_is_no_tree_is_refused_in_1_gb_without_a_table(tmp_path):
    # refused before the table, which would outgrow the cap, is built
    window = no_tree_window()
    out = tmp_path / "refused"
    result = limited_run(["lipschitz", "--spec", "window:" + window,
                          "--depth", "1500", "--out", str(out)])
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: word 'bbaaaaaaaba' at length 11 has no extension\n")
    assert not out.exists()


def test_laplacian_of_a_window_that_is_no_tree_is_refused_in_1_gb(tmp_path):
    # its 1501 leaves of length 1500 are within the leaf limit; the tree
    # check runs on the sorted leaves, read once, before any table
    out = tmp_path / "refused"
    start = time.perf_counter()
    result = limited_run(["laplacian", "--spec", "window:" + no_tree_window(),
                          "--depth", "1500", "--out", str(out)])
    assert time.perf_counter() - start < 10.0
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: word 'bbaaaaaaaba' at length 11 has no extension\n")
    assert not out.exists()


@pytest.mark.parametrize("command, letters", (
    # the window's 2990 sorted leaves are counted before any table
    (["lang", "--spec", "window:" + no_tree_window(), "--depth", "1500"],
     2252063262),
    # 2001 leaves, within the leaf limit; n(n + 1) letters at each length n
    (["laplacian", "--spec", "sturmian:cf=1", "--depth", "2000"],
     2670668000)))
def test_table_past_the_letter_cap_is_refused_in_1_gb(tmp_path, command,
                                                      letters):
    out = tmp_path / "refused"
    start = time.perf_counter()
    result = limited_run(command + ["--out", str(out)])
    assert time.perf_counter() - start < 10.0
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: table of %d letters exceeds the limit of %d\n"
        % (letters, 2 ** 30))
    assert not out.exists()


def test_out_of_memory_exits_2_without_a_traceback(tmp_path):
    # the Thue-Morse window of depth 16384 outgrows 1 GB while it is cut to
    # its recurrent prefix, before anything counts the leaves
    out = tmp_path / "oom"
    result = limited_run(["lang", "--spec", "subst:a=ab,b=ba", "--depth",
                          "16384", "--out", str(out)])
    assert (result.returncode, result.stdout, result.stderr) == (
        2, "", "error: out of memory\n")
    assert "Traceback" not in result.stderr
    assert not out.exists()


def test_full_shift_zeta_at_depth_65536_runs_in_256_mb(tmp_path):
    # tuples of the counts 2^n would hold about 1 GB; streamed, 30 MB
    out = tmp_path / "deep"
    assert limited_run(["zeta", "--spec", "full:2", "--delta", "harmonic",
                        "--depth", "65536", "--out", str(out)],
                       limit=2 ** 28).returncode == 0
    assert sorted(os.listdir(out)) == ["zeta_partials.csv",
                                       "zeta_report.json"]
    assert all(os.path.getsize(out / name) > 0 for name in os.listdir(out))


def fresh_loaded(code):
    """Run code in a fresh interpreter; which of numpy and scipy it left
    loaded, and which ultratree modules, by their names in the package."""
    code += ("\nimport sys; print('loaded:', *[m for m in ('numpy', 'scipy')"
             " if m in sys.modules])\nprint('modules:', *sorted("
             "m.split('.', 1)[1] for m in sys.modules if m.startswith("
             "'ultratree.')))")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    loaded, modules = result.stdout.strip().splitlines()[-2:]
    return loaded.split()[1:], modules.split()[1:]


# the ultratree modules a command leaves loaded: cli and the layers it
# runs, none for --help
COMMAND_MODULES = {
    "--help": ["cli"],
    "lang": ["cli", "words"],
    "lipschitz": ["cli", "tree", "words"],
    "zeta": ["cli", "tree", "words", "zeta"],
    "laplacian": ["cli", "laplacian", "tree", "words"],
}


def test_cli_import_leaves_scipy_out():
    # numpy serves the Laplacian eigensolve only; the CLI loads no layer
    # until a command runs
    assert fresh_loaded("import ultratree.cli") == ([], ["cli"])


def test_metrics_and_dijkstra_leave_numpy_and_scipy_out():
    # the shortest paths run by vertex elimination in plain Python
    assert fresh_loaded("import ultratree.metrics") == (
        [], ["metrics", "tree", "words"])
    assert fresh_loaded(
        "from ultratree import metrics, tree, words\n"
        "t = tree.build_tree(words.language_table(words.FullShift(2), 3))\n"
        "g = tree.approximation_graph(t, tree.choice_function(t), "
        "tree.DeltaSequence.harmonic())\n"
        "assert metrics.graph_distances(g, [('aaa', 'bbb')]) == "
        "[1 + 1 / 2 + 1 / 3]") == ([], ["metrics", "tree", "words"])


@pytest.mark.parametrize("command", (
    ["zeta", "--spec", "full:2", "--depth", "16"],
    ["laplacian", "--spec", "full:2", "--depth", "3", "--pb"],
    ["lipschitz", "--spec", "full:2", "--depth", "64"],
    ["lipschitz", "--spec", "subst:a=ab,b=ba", "--depth", "32"],
    ["laplacian", "--spec", "full:3", "--depth", "2", "--measure",
     "random"],
    # a float matrix: a non-integer exponent
    ["laplacian", "--spec", "full:2", "--depth", "6", "--rho", "1.5",
     "--delta", "harmonic", "--measure", "random", "--seed", "7", "--pb"]))
def test_zeta_and_laplacian_leave_scipy_out(tmp_path, command):
    out = tmp_path / "out"
    argv = command + ["--out", str(out)]
    loaded, modules = fresh_loaded(
        "from ultratree.cli import main\nassert main(%r) == 0" % (argv,))
    if command[2] == "full:3":
        # numpy solves the spectrum blocks of forks with three children
        assert loaded == ["numpy"]
        assert len(read_csv(out / "spectrum.csv")) == 1 + 9
    elif command[0] == "laplacian":
        # a binary tree's blocks are single eigenvalues, and its checks,
        # exact or in floats, run in plain Python
        assert loaded == []
        assert len(read_csv(out / "spectrum.csv")) == 1 + 2 ** int(
            command[command.index("--depth") + 1])
    else:
        assert loaded == []
    assert modules == COMMAND_MODULES[command[0]]


@pytest.mark.parametrize("command", (
    [], ["lang", "--spec", "sturmian:cf=1", "--depth", "16"]))
def test_help_and_lang_leave_numpy_and_scipy_out(tmp_path, command):
    argv = command + ["--out", str(tmp_path / "out")] if command else \
        ["--help"]
    code = ("from ultratree.cli import main\ntry:\n    assert main(%r) == 0"
            "\nexcept SystemExit as exc:\n    assert exc.code == 0" % (argv,))
    assert fresh_loaded(code) == ([], COMMAND_MODULES[argv[0]])


@pytest.mark.parametrize("command", (
    ["lipschitz", "--spec", "full:2"],
    ["lipschitz", "--spec", "subst:a=ab,b=ba"],
    ["zeta", "--spec", "full:2"]))
def test_schedule_below_one_is_refused(tmp_path, capsys, command):
    out = tmp_path / "sched"
    assert main(command + ["--depth", "4", "--schedule", "0,4",
                           "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "schedule" in err
    assert not out.exists()


def test_depth_one_runs_one_schedule_point(tmp_path):
    # a depth-1 run reads delta_0 only, so a one-value table suffices
    table = tmp_path / "delta.txt"
    table.write_text("1.0\n")
    for command in ("lipschitz", "zeta"):
        out = tmp_path / command
        assert main([command, "--spec", "full:2", "--depth", "1", "--delta",
                     "table:%s" % table, "--out", str(out)]) == 0
        report = read_json(str(out / (command + "_report.json")))
        assert report["schedule"] == [1]


@pytest.mark.parametrize("content", (
    "{}", "[1, 2]", '{"": [0.5, 0.5], "a": 3}', '{"": [null, 1]}',
    '{"": [NaN, 1]}', '{"": ["1/0", 1]}'))
def test_malformed_measure_file_is_refused(tmp_path, capsys, content):
    measure = tmp_path / "measure.json"
    measure.write_text(content)
    out = tmp_path / "lap"
    assert main(["laplacian", "--spec", "full:2", "--depth", "2",
                 "--measure", "file:%s" % measure, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


def test_determinism(tmp_path):
    args = ["laplacian", "--spec", "full:3", "--depth", "3",
            "--delta", "harmonic", "--measure", "random", "--seed", "7"]
    outs = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        assert main(args + ["--out", out]) == 0
        outs.append(out)
    for fname in ("laplacian_matrix.csv", "index_map.json",
                  "spectrum.csv", "laplacian_report.json"):
        with open(outs[0] + "/" + fname, "rb") as fa, \
                open(outs[1] + "/" + fname, "rb") as fb:
            assert fa.read() == fb.read()
    # the 1 + 3 + 9 forks of full:3 at depth 3, each of three children
    assert read_json(outs[0] + "/laplacian_report.json")["spectrum"] == {
        "blocks": 13, "largest_block": 2}


# the SHA-256 of every file that these commands write, pinned on Python
# 3.11.  A digest that differs on another Python is a finding to explain,
# not one to regenerate.  The spectrum of the window is left out: its fork
# of three children is solved by numpy, whose rounding is not pinned here
GOLDEN = (
    (["lang", "--spec", "sturmian:cf=1,1,1,...", "--depth", "64"], {
        "language.csv":
            "bd5b147160a3657e9b19d6df71a960329a2c49f2d6de421729629ba599f40edd",
        "language_report.json":
            "8e60ee08f3adc382b02d86cf57b3439ad34ebbf923d089eefa0d2b13630acdc6",
    }),
    (["lipschitz", "--spec", "full:2", "--delta", "exp", "--depth", "4096"], {
        "lipschitz.csv":
            "fac4e937691814c6ac08bee553eb284c101bb5ace6a00a6d2e7f7a8146bc158d",
        "lipschitz_report.json":
            "2c26a47adfa5c735ef7bbc1e46b885e982bda9b4b45e5f44a188432c56d1e5fe",
    }),
    (["zeta", "--spec", "sturmian:cf=1", "--delta", "harmonic", "--depth",
      "1024", "--schedule", "256,512,1024"], {
        "zeta_partials.csv":
            "2c6ca2fa9c9f2b10ee203dd25c6393996f8998f512fbb531b4c8886350031fda",
        "zeta_report.json":
            "b72fb9b82031ff3c268ab73e338e185b4410a9638ea189156e9d384dcba67990",
    }),
    (["laplacian", "--spec", "full:2", "--depth", "6", "--rho", "2",
      "--delta", "harmonic", "--measure", "random", "--seed", "7", "--pb"], {
        "laplacian_matrix.csv":
            "469f42f17390eec98e950518044683f2eaf2b109579ff0d4ecb54cf0a3dc5694",
        "index_map.json":
            "6125acb580ef4d20fd18c0b3b5bdcdd433c772734395d36969ebc38d40626d2d",
        "spectrum.csv":
            "fbe073969ef8df8137b9a4f71e67abf870670a76eb051ad7bfe82a1d0ebe43f3",
        "laplacian_report.json":
            "af698dbb62a40b43bdf194c70478f1390e67953b21a10cddc5f8205d6e252dc5",
    }),
    (["lipschitz", "--spec", "subst:a=ab,b=ba", "--depth", "128"], {
        "lipschitz.csv":
            "bb830f7d1a2ff48ccd6e1c19f1523baa5e04537bd7af97be268445c8153a92bf",
        "lipschitz_report.json":
            "74fef880e0267e779faa3a64d313b9e7b0837a512e191f9e9aa230b886e4bb1c",
    }),
    (["laplacian", "--spec", "window:aabacbcabaabacbcab", "--depth", "4",
      "--measure", "random", "--seed", "3", "--pb"], {
        "laplacian_matrix.csv":
            "6bc1c1b674f63d932f9c2ef2402162679f480818de31638ffa629385433d7b13",
        "index_map.json":
            "b5fa9346155fd404b748b77ddfd55575d654a1f4aaebfc4a525a7ce2553c0d5c",
        "laplacian_report.json":
            "e534e50115478465e3d8387c7f8046a32e58dfd68f1970f66d9fee50226c81a0",
    }),
    (["laplacian", "--spec", "full:2", "--depth", "6", "--rho", "1.5",
      "--delta", "harmonic", "--measure", "random", "--seed", "7", "--pb"], {
        "laplacian_matrix.csv":
            "b371fb32203b375207494e5999429f2b2a491a6453aa3d0fd36d866a5a8d17ba",
        "index_map.json":
            "6125acb580ef4d20fd18c0b3b5bdcdd433c772734395d36969ebc38d40626d2d",
        "spectrum.csv":
            "2b0b3896bb07b983e3296790302659a3e3c7e3e8753c413750e03ad53d2d6abc",
        "laplacian_report.json":
            "c454cebb1b3c7c07c140e195dce1850bba3bd4da3bd54d0b6ecbfe86798b5cbe",
    }),
    (["laplacian", "--spec", "full:2", "--depth", "3", "--delta", "harmonic",
      "--measure", "file:weights.json", "--pb"], {
        "laplacian_matrix.csv":
            "1de309dc0c407aaa719ce462b935086338510280a3c714deabd4083dccb1b6c9",
        "index_map.json":
            "b60fe49956d28dbaf75843e71c78376b0b0b64d848ffdc33b73021dfed57f863",
        "spectrum.csv":
            "6e3c8c5ce5156e8e7648a66d5e7b48916db6efd3020552d6181bca6a840626fe",
        "laplacian_report.json":
            "e2d967f4a090c7ffd1aee0ac3c9cd89d0252fb277dbb818c75db372db01ef9cf",
    }),
    (["zeta", "--spec", "full:2", "--delta", "harmonic", "--depth", "4096"], {
        "zeta_partials.csv":
            "3e82e55f99181d987cca3e1f99bdb8ac2ab8c80ae78fbb64b0dd1b71722b1066",
        "zeta_report.json":
            "72e183ed858b66a62b3049c70deece09aa03b4057c43418c79bf331c673c1644",
    }),
    (["zeta", "--spec", "full:3", "--delta", "powerlog:1.5,1", "--depth",
      "2048"], {
        "zeta_partials.csv":
            "643325298532162f48b9ef3a682a165dbf320a251f97f53aa510d73333ea6df9",
        "zeta_report.json":
            "1d0dd9e47455466605cdebbfc8a09d4ac0a16e872a012fad634fbc230f901407",
    }),
    # two Sturmian runs, whose series are constant: for s of -0.2 and below
    # a term passes e^709 in some chunk, and for s > 0 the terms below
    # e^-746 are cut
    (["zeta", "--spec", "sturmian:cf=1,linear", "--delta", "exp", "--depth",
      "4096", "--s-min", "-1", "--s-max", "1", "--s-step", "0.1"], {
        "zeta_partials.csv":
            "af6c49a4636a07fdca1cd1c4a09d090be565edbfb8e8b705ddc003c6a89bae20",
        "zeta_report.json":
            "80bee405e72bb73b39cc8965a37fb4867b1965badb58db109cc18a9b31801799",
    }),
    (["zeta", "--spec", "sturmian:cf=0,3,pow2", "--delta", "powerlog:1.5,1",
      "--depth", "2048", "--s-min", "-3", "--s-max", "3"], {
        "zeta_partials.csv":
            "6c83e2fd1c3b53a7c89795a6c351a480acf829b265133a0b8a45cca571e9bba4",
        "zeta_report.json":
            "e7175e272b4380e20b478831a1715719059a0123fb8684a5a8ee9526ff294a90",
    }),
)

# the float weights that the last run reads, from the directory it runs in
FLOAT_WEIGHTS = (
    '{"": [0.25, 0.75], "a": [0.5, 0.5], "b": [0.1, 0.9], "aa": [0.3, 0.7], '
    '"ab": [0.6, 0.4], "ba": [0.2, 0.8], "bb": [0.45, 0.55]}\n')


@pytest.mark.parametrize("argv, digests", GOLDEN, ids=(
    "lang", "lipschitz", "zeta", "laplacian", "lipschitz-thue-morse",
    "laplacian-window", "laplacian-float-rho", "laplacian-float-measure",
    "zeta-full-binary", "zeta-full-ternary", "zeta-sturmian-exp",
    "zeta-sturmian-powerlog"))
def test_outputs_match_their_pinned_digests(tmp_path, capsys, monkeypatch,
                                            argv, digests):
    # the four README commands, Thue-Morse lipschitz, an exact laplacian
    # with a fork of three children, two binary float laplacians, one of
    # a non-integer exponent and one of float weights, the zeta reports of
    # two full shifts, whose exponent windows are read from ScaledPowers,
    # and of two Sturmian specs, whose series are constant
    monkeypatch.chdir(tmp_path)
    (tmp_path / "weights.json").write_text(FLOAT_WEIGHTS)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    written = {path.name for path in out.iterdir()}
    assert set(digests) <= written
    assert written - set(digests) <= {"spectrum.csv"}
    for name, want in digests.items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == want, name
