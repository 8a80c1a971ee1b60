"""Command-line behavior: schemas, exit codes, seeds, output identity."""

import contextlib
import csv
import dataclasses
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestmc import cli, harness
from nestmc.allocation import FixedInner, TauPower, split_budget
from nestmc.cli import _cell, main
from nestmc.estimators import NESTED
from nestmc.models import CATALOG


def run_cli(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def parse_csv(text):
    """Split CSV output into (header, data rows, trailing comment lines)."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    table = [ln for ln in lines if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(table))))
    return rows[0], rows[1:], comments


# ------------------------------------------------------------------ models list

def test_models_list(capsys):
    code, out, _ = run_cli(capsys, ["models", "list"])
    assert code == 0
    lines = out.splitlines()
    names = [ln.split()[0] for ln in lines]
    assert names == ["bias-quad-neg", "bias-quad-pos", "constant", "gauss-log",
                     "linear-gauss"]
    gauss = next(ln for ln in lines if ln.startswith("gauss-log"))
    assert "truth=-1.163844" in gauss
    assert "tags=" in gauss


def test_models_action_defaults_to_list(capsys):
    code_explicit, out_explicit, _ = run_cli(capsys, ["models", "list"])
    code_default, out_default, _ = run_cli(capsys, ["models"])
    assert (code_default, out_default) == (code_explicit, out_explicit)


@pytest.mark.parametrize("argv, message", [
    (["models", "--out", "report.txt"], "unrecognized arguments: --out"),
    (["models", "list", "--seed", "3"], "unrecognized arguments: --seed 3"),
    (["models", "all"], "error: unknown models action 'all'"),
])
def test_models_faults_name_the_bad_argument(capsys, tmp_path, monkeypatch, argv, message):
    # models takes none of the report subcommands' common flags.
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == "" and message in err
    assert "invalid choice" not in err and not (tmp_path / "report.txt").exists()


# -------------------------------------------------------------------- converge

_SEED_ARGS = ["converge", "--model", "gauss-log", "--budgets", "16,64",
              "--reps", "4"]


def test_converge_csv_layout(capsys):
    code, out, _ = run_cli(capsys, ["converge", "--model", "gauss-log",
                                    "--budgets", "16:65536:7",
                                    "--reps", "5", "--seed", "3"])
    assert code == 0
    header, rows, comments = parse_csv(out)
    assert header == ["T", "N", "M", "reps", "mean", "mse", "mse_se",
                      "degenerate_frac"]
    assert [int(r[0]) for r in rows] == [4**k for k in range(2, 9)]
    assert all(int(r[1]) == int(r[2]) == int(math.isqrt(int(r[0]))) for r in rows)
    assert all(r[3] == "5" for r in rows)
    for r in rows:
        assert all(math.isfinite(float(cell)) for cell in r[4:])
    assert len(comments) == 1 and comments[0].startswith("# slope=")


def test_converge_comma_grid_sorted_with_schedule(capsys):
    code, out, _ = run_cli(capsys, ["converge", "--model", "gauss-log",
                                    "--budgets", "256,16", "--reps", "6",
                                    "--rep-schedule", "256:3", "--seed", "0"])
    assert code == 0
    _, rows, _ = parse_csv(out)
    assert [(int(r[0]), int(r[3])) for r in rows] == [(16, 6), (256, 3)]


def test_converge_zero_mse_note(capsys):
    code, out, _ = run_cli(capsys, ["converge", "--model", "constant",
                                    "--budgets", "16,64", "--reps", "4",
                                    "--seed", "0"])
    assert code == 0
    *_, comments = parse_csv(out)
    assert comments == ["# slope=none note=degenerate: zero MSE"]


@pytest.mark.parametrize("argv", [
    ["converge", "--model", "gauss-log", "--budgets", "100:10:3"],
    ["converge", "--model", "no-such-model", "--budgets", "16,64"],
    ["converge", "--model", "gauss-log", "--budgets", "10:100"],
    ["converge", "--model", "gauss-log", "--budgets", "16,64", "--reps", "1"],
    ["collapse", "--model", "gauss-log", "--budgets", "16,64"],
    ["allocate", "--model", "gauss-log", "--T", "2",
     "--policies", "tau:alpha=1,c=1", "--reps", "4"],
    ["allocate", "--model", "gauss-log", "--T", "64", "--policies", " ; "],
    ["converge", "--model", "gauss-log", "--budgets", "16,64",
     "--policy", "tau:beta=1"],
    ["converge", "--model", "gauss-log", "--budgets", "16,64",
     "--policy", "tau:alpha=1,c=inf"],
    # A schedule entry for no row's T, and one T scheduled twice.
    ["converge", "--model", "gauss-log", "--budgets", "16,64", "--reps", "4",
     "--rep-schedule", "17:3"],
    ["converge", "--model", "gauss-log", "--budgets", "16,64", "--reps", "4",
     "--rep-schedule", "16:3,16:5"],
])
def test_config_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error:")
    if argv[0] == "collapse":
        # The estimator states the collapse rule once, before any draw.
        assert err.count("\n") == 1 and "linear_g" in err
    if "--rep-schedule" in argv:
        assert err.count("\n") == 1
        assert f"T={argv[-1].split(':')[0]}" in err


@pytest.mark.parametrize("argv, names", [
    (["converge", "--budgets", "16,x"], ["--budgets"]),
    (["converge", "--budgets", "16:64:1e3"], ["--budgets"]),
    (["bias", "--N", "8", "--Ms", "2,x"], ["--Ms"]),
    (["converge", "--budgets", "16,64", "--rep-schedule", "x:3"], ["--rep-schedule"]),
    (["converge", "--budgets", "16,64", "--rep-schedule", "16:3:4"], ["--rep-schedule"]),
    (["converge", "--budgets", "16,64", "--policy", "tau:alpha=x"], ["'tau:alpha=x'", "alpha"]),
    (["allocate", "--T", "64", "--policies", "fixed-inner:M=x"], ["'fixed-inner:M=x'", "M"]),
])
def test_unparsable_numbers_name_their_flag(capsys, argv, names):
    code, out, err = run_cli(capsys, argv[:1] + ["--model", "gauss-log"] + argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert all(name in err for name in names), err
    assert "invalid literal" not in err and "could not convert" not in err


def test_overflowing_tau_policy_splits_one_by_one(capsys):
    # tau(M) = M**1e308 overflows a float for every M >= 2, so only M = 1 fits.
    assert split_budget(TauPower(1e308, 1), 16) == (1, 1)
    code, out, _ = run_cli(capsys, ["converge", "--model", "gauss-log", "--budgets", "16,64",
                                    "--policy", "tau:alpha=1e308,c=1", "--reps", "3",
                                    "--seed", "0"])
    assert code == 0
    _, rows, _ = parse_csv(out)
    assert [(r[1], r[2]) for r in rows] == [("1", "1"), ("1", "1")]


_COLLAPSE_ARGS = ["collapse", "--model", "linear-gauss", "--budgets", "16,64", "--reps", "4"]


# Flags added to _SEED_ARGS, or whole command lines, which begin with a subcommand.
@pytest.mark.parametrize("extra", [
    ["--out", "{tmp}/missing/report.csv"],
    ["--out", "{tmp}"],
    ["--workers", "0"],
    ["--workers", "-3"],
    # A whole grid of rows up to 10**7 draws would run before this fault was seen.
    ["converge", "--model", "gauss-log", "--budgets", "16:10000000:3", "--reps", "20",
     "--drop-smallest", "-1"],
    _COLLAPSE_ARGS + ["--drop-smallest", "-1"],
    # The collapsed sweep takes T = 1; the nested one cannot split it.
    ["collapse", "--model", "linear-gauss", "--budgets", "1,2,2000000", "--reps", "50"],
    ["collapse", "--model", "linear-gauss", "--budgets", "1,2,100", "--reps", "4"],
    ["collapse", "--model", "gauss-log", "--budgets", "16,64", "--reps", "4"],
    _COLLAPSE_ARGS + ["--rep-schedule", "17:3"],
    ["--rep-schedule", "16:3,17:3"],
    # FixedInner(1) splits the collapsed sweep's budgets first, so T = 0
    # faults there (see test_collapse_budget_zero_faults_in_the_collapsed_split).
    ["collapse", "--model", "linear-gauss", "--budgets", "0,16"],
])
def test_run_faults_exit_2_before_computing(capsys, monkeypatch, tmp_path, extra):
    # Every runner reaches the scheduler through this one entry.
    def never(*args, **kwargs):
        raise AssertionError("computation started")

    monkeypatch.setattr(harness, "_fill_replications", never)
    argv = extra if extra[0] in ("converge", "collapse") else _SEED_ARGS + extra
    code, out, err = run_cli(capsys, [x.replace("{tmp}", str(tmp_path)) for x in argv])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_collapse_budget_zero_faults_in_the_collapsed_split(capsys):
    # The collapsed sweep runs under FixedInner(1), whose split of T = 0 is
    # the first fault of this grid, before the nested sweep's tau split.
    code, out, err = run_cli(capsys, ["collapse", "--model", "linear-gauss",
                                      "--budgets", "0,16"])
    assert (code, out, err) == (2, "", "error: T must be >= 1, got 0\n")


@pytest.mark.parametrize("argv", [
    _SEED_ARGS,
    ["bias", "--model", "bias-quad-pos", "--N", "8", "--Ms", "2,4", "--reps", "4"],
    ["allocate", "--model", "gauss-log", "--T", "256", "--reps", "4",
     "--policies", "tau:alpha=1,c=1;fixed-inner:M=4"],
    _COLLAPSE_ARGS,
])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_each_run_makes_one_scheduler_call(capsys, monkeypatch, argv, workers):
    calls = []
    fill = harness._fill_replications

    def counted(jobs, w):
        calls.append(len(jobs))
        return fill(jobs, w)

    monkeypatch.setattr(harness, "_fill_replications", counted)
    code, _, _ = run_cli(capsys, argv + ["--workers", workers])
    assert code == 0 and len(calls) == 1
    # collapse draws both of its sweeps in the one call.
    assert calls[0] == (4 if argv[0] == "collapse" else 2)


def test_a_failed_fork_gives_the_one_worker_report(capsys, monkeypatch):
    # os.fork failing with EAGAIN ends the forking: the calling process runs
    # every span, so the run prints the --workers 1 bytes and exits 0.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    want = run_cli(capsys, _SEED_ARGS + ["--workers", "1"])

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_cli(capsys, _SEED_ARGS + ["--workers", "2"]) == want and want[0] == 0


def test_unwritable_out_exits_2(capsys, tmp_path):
    # The directory exists, but the file name is longer than any file system takes.
    code, _, err = run_cli(capsys, _SEED_ARGS + ["--out", str(tmp_path / ("x" * 300))])
    assert code == 2 and err.startswith("error: cannot write")


@pytest.mark.parametrize("argv", [
    ["converge", "--model", "gauss-log"],          # missing --budgets
    ["bias", "--model", "gauss-log", "--Ms", "2"],  # missing --N
    ["frobnicate"],
    [],
    ["allocate", "--model", "gauss-log", "--policies", "tau:alpha=1,c=1"],  # missing --T
    ["allocate", "--model", "gauss-log", "--T", "64"],  # missing --policies
    ["bias", "--model", "gauss-log", "--N", "4"],  # missing --Ms
    ["collapse", "--budgets", "16,64"],  # missing --model
    ["models", "--workers", "2"],
])
def test_usage_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2 and "Traceback" not in err


def _option_help(text, flag):
    """The help block of one option in argparse's --help output."""
    return text.split("\n  " + flag, 1)[1].split("\n  -", 1)[0]


def test_sweep_flags_share_help(capsys):
    _, converge, _ = run_cli(capsys, ["converge", "--help"])
    _, collapse, _ = run_cli(capsys, ["collapse", "--help"])
    for flag in ("--budgets", "--drop-smallest", "--rep-schedule"):
        assert _option_help(collapse, flag) == _option_help(converge, flag)
    assert "slope fit" in _option_help(collapse, "--drop-smallest")
    assert "overrides" in _option_help(collapse, "--rep-schedule")


def test_cached_parser_keeps_no_state_between_calls(capsys, tmp_path):
    # One parser serves every call of the process; nothing a call parses,
    # fails on or prints may reach the next call's namespace.
    assert cli._build_parser() is cli._build_parser()
    converge = ["converge", "--model", "gauss-log", "--budgets", "16,64", "--reps", "5",
                "--seed", "3"]
    code, first, _ = run_cli(capsys, converge)
    assert code == 0
    code, out, err = run_cli(capsys, ["bias", "--model", "gauss-log", "--N", "4",
                                      "--Ms", "2,x", "--reps", "7", "--seed", "9",
                                      "--format", "json", "--workers", "2",
                                      "--out", str(tmp_path / "bias.json")])
    assert (code, out) == (2, "") and "--Ms" in err
    assert run_cli(capsys, ["--help"])[0] == 0
    assert run_cli(capsys, ["models"])[0] == 0
    code, again, _ = run_cli(capsys, converge)
    assert code == 0 and again == first


def test_degenerate_rows_exit_3(capsys, monkeypatch):
    # Integrand that is never finite: every row flags, cells say so.
    base = CATALOG["gauss-log"]()
    bad = dataclasses.replace(base, name="never-finite", truth=0.0,
                              f=lambda y, w: w * float("nan"),
                              outer_batch=None, inner_batch=None,
                              linear_g=None, expected_nmc_value=None)
    monkeypatch.setitem(CATALOG, "never-finite", lambda: bad)
    code, out, _ = run_cli(capsys, ["converge", "--model", "never-finite",
                                    "--budgets", "16,64", "--reps", "3",
                                    "--seed", "0"])
    assert code == 3
    _, rows, comments = parse_csv(out)
    for r in rows:
        assert r[4] == r[5] == r[6] == "degenerate"
        assert float(r[7]) == 1.0
    assert comments[0].startswith("# slope=none note=")


def test_collapse_degenerate_rows_exit_3(capsys, monkeypatch):
    # A linear integrand that is never finite flags every row of both sweeps.
    base = CATALOG["linear-gauss"]()
    bad = dataclasses.replace(base, name="never-finite-linear", truth=0.0,
                              f=lambda y, w: w * float("nan"),
                              expected_nmc_value=None)
    monkeypatch.setitem(CATALOG, "never-finite-linear", lambda: bad)
    code, out, _ = run_cli(capsys, ["collapse", "--model", "never-finite-linear",
                                    "--budgets", "16,64", "--reps", "3",
                                    "--seed", "0"])
    assert code == 3
    _, rows, comments = parse_csv(out)
    assert [r[0] for r in rows] == ["collapsed", "collapsed", "nested", "nested"]
    assert all(float(r[8]) == 1.0 for r in rows)
    assert [c.split(" note=")[0] for c in comments] == ["# collapsed_slope=none",
                                                        "# nested_slope=none"]


@pytest.mark.parametrize("flagged, code", [(1, 0), (2, 3)])
def test_exit_code_counts_more_than_a_tenth_flagged(flagged, code):
    # 1 of 10 rows flagged is exactly 10%, not more: exit 0; 2 of 10 exit 3.
    row = harness.ConvergenceRow(T=16, N=4, M=4, reps=2, mean=0.0, mse=1.0, mse_se=0.1,
                                 degenerate_frac=0.0)
    rows = ([dataclasses.replace(row, degenerate_frac=1.0)] * flagged
            + [row] * (10 - flagged))
    report = harness.ConvergenceReport(model="m", estimator=NESTED, policy=FixedInner(4),
                                       rows=tuple(rows), fit=None, fit_note="", root_seed=0)
    assert cli._exit_code(report) == code


# ------------------------------------------------------------------------ bias

def test_bias_csv_with_predictions(capsys):
    code, out, _ = run_cli(capsys, ["bias", "--model", "bias-quad-pos",
                                    "--N", "50", "--Ms", "8,2",
                                    "--reps", "30", "--seed", "0"])
    assert code == 0
    header, rows, comments = parse_csv(out)
    assert header == ["M", "N", "reps", "mean_error", "se", "predicted"]
    assert [int(r[0]) for r in rows] == [2, 8]
    assert all(r[1] == "50" and r[2] == "30" for r in rows)
    for r in rows:
        assert float(r[3]) > 0
        assert float(r[5]) == pytest.approx(0.0844 / int(r[0]), rel=0.01)
    assert comments[0].startswith("# slope=")


def test_bias_without_prediction_leaves_cell_blank(capsys):
    _, out, _ = run_cli(capsys, ["bias", "--model", "gauss-log", "--N", "100",
                                 "--Ms", "2:32:3", "--reps", "40", "--seed", "0"])
    _, rows, _ = parse_csv(out)
    assert [int(r[0]) for r in rows] == [2, 8, 32]  # geometric Ms grid
    assert all(r[5] == "" for r in rows)
    assert all(float(r[3]) < 0 for r in rows)


# -------------------------------------------------------------------- allocate

def test_allocate_csv_ranking(capsys):
    code, out, _ = run_cli(capsys, ["allocate", "--model", "gauss-log",
                                    "--T", "4096", "--reps", "40", "--seed", "1",
                                    "--policies",
                                    "tau:alpha=2,c=1;tau:alpha=1,c=1"])
    assert code == 0
    header, rows, comments = parse_csv(out)
    assert header == ["policy", "N", "M", "mse", "mse_se", "rank"]
    assert [int(r[5]) for r in rows] == [1, 2]
    mses = [float(r[3]) for r in rows]
    assert mses == sorted(mses)
    assert {r[0] for r in rows} == {"tau:alpha=1,c=1", "tau:alpha=2,c=1"}
    assert comments == []
    # policy names contain commas, so the raw cells must be quoted
    assert '"tau:alpha=1,c=1"' in out


def test_allocate_tie_comment(capsys):
    code, out, _ = run_cli(capsys, ["allocate", "--model", "constant",
                                    "--T", "256", "--reps", "5", "--seed", "0",
                                    "--policies", "tau:alpha=1,c=1;fixed-inner:M=4"])
    assert code == 0
    *_, comments = parse_csv(out)
    assert comments == ["# tie=true"]


# -------------------------------------------------------------------- collapse

def test_collapse_csv_layout(capsys):
    code, out, _ = run_cli(capsys, ["collapse", "--model", "linear-gauss",
                                    "--budgets", "100,1000", "--reps", "25",
                                    "--seed", "2"])
    assert code == 0
    header, rows, comments = parse_csv(out)
    assert header == ["estimator"] + ["T", "N", "M", "reps", "mean", "mse",
                                      "mse_se", "degenerate_frac"]
    assert [(r[0], int(r[1]), int(r[2]), int(r[3])) for r in rows] == [
        ("collapsed", 100, 100, 1), ("collapsed", 1000, 1000, 1),
        ("nested", 100, 10, 10), ("nested", 1000, 31, 31)]
    assert comments[0].startswith("# collapsed_slope=")
    assert comments[1].startswith("# nested_slope=")


# ------------------------------------------------------------------------ json

def test_converge_json_shape(capsys):
    code, out, _ = run_cli(capsys, ["converge", "--model", "gauss-log",
                                    "--budgets", "16,64,256", "--reps", "5",
                                    "--seed", "4", "--format", "json",
                                    "--drop-smallest", "1"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"metadata", "rows", "fit", "fit_note"}
    assert set(doc["metadata"]) == {"model", "policy", "seed", "version"}
    assert doc["metadata"]["model"] == "gauss-log"
    assert doc["metadata"]["policy"] == "tau:alpha=1,c=1"  # default policy
    assert doc["metadata"]["seed"] == 4
    assert set(doc["fit"]) == {"slope", "intercept", "residual_rms", "points_used"}
    assert doc["fit"]["points_used"] == 2
    assert [row["T"] for row in doc["rows"]] == [16, 64, 256]
    assert set(doc["rows"][0]) == {"T", "N", "M", "reps", "mean", "mse",
                                   "mse_se", "degenerate_frac"}


def test_bias_json_null_prediction(capsys):
    _, out, _ = run_cli(capsys, ["bias", "--model", "gauss-log", "--N", "50",
                                 "--Ms", "2,4", "--reps", "10", "--seed", "0",
                                 "--format", "json"])
    doc = json.loads(out)
    assert doc["metadata"]["policy"] is None
    assert all(row["predicted"] is None for row in doc["rows"])


def test_allocate_json_tie_and_policy_metadata(capsys):
    _, out, _ = run_cli(capsys, ["allocate", "--model", "constant", "--T", "256",
                                 "--reps", "5", "--seed", "0", "--format", "json",
                                 "--policies", "tau:alpha=1,c=1;fixed-inner:M=4"])
    doc = json.loads(out)
    assert doc["tie"] is True
    assert doc["metadata"]["policy"] == "tau:alpha=1,c=1;fixed-inner:M=4"


def test_collapse_json_two_fits(capsys):
    _, out, _ = run_cli(capsys, ["collapse", "--model", "linear-gauss",
                                 "--budgets", "100,400", "--reps", "10",
                                 "--seed", "0", "--format", "json"])
    doc = json.loads(out)
    assert set(doc) == {"metadata", "rows", "collapsed_fit", "collapsed_fit_note",
                        "nested_fit", "nested_fit_note"}
    assert [row["estimator"] for row in doc["rows"]] == ["collapsed", "collapsed",
                                                         "nested", "nested"]


# ----------------------------------------------------------------------- seeds

def test_seed_precedence(capsys, monkeypatch):
    # The seed is --seed, else 0: the environment plays no part.
    zero = run_cli(capsys, _SEED_ARGS + ["--seed", "0"])
    assert zero[0] == 0
    monkeypatch.setenv("NESTMC_SEED", "5")
    assert run_cli(capsys, _SEED_ARGS) == zero


# -------------------------------------------------------------- files and echo

# Each subcommand's command line and the prefixes of the lines --out echoes.
_OUT_CASES = {
    "converge": (_SEED_ARGS + ["--seed", "1"], ["slope="]),
    "bias": (["bias", "--model", "bias-quad-pos", "--N", "40", "--Ms", "2,8",
              "--reps", "10", "--seed", "1"], ["slope="]),
    "allocate": (["allocate", "--model", "gauss-log", "--T", "1024", "--reps", "10",
                  "--seed", "1", "--policies", "tau:alpha=1,c=1;tau:alpha=2,c=1"], []),
    "collapse": (["collapse", "--model", "linear-gauss", "--budgets", "100,400",
                  "--reps", "10", "--seed", "0"], ["collapsed_slope=", "nested_slope="]),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("sub", sorted(_OUT_CASES))
def test_out_file_matches_stdout_and_echoes_slope(capsys, tmp_path, sub, fmt):
    argv, prefixes = _OUT_CASES[sub]
    argv = argv + ["--format", fmt]
    _, streamed, _ = run_cli(capsys, argv)
    path = tmp_path / f"report.{fmt}"
    code, echoed, _ = run_cli(capsys, argv + ["--out", str(path)])
    assert code == 0
    assert path.read_text(encoding="utf-8") == streamed
    lines = echoed.splitlines()
    assert echoed.count("\n") == len(lines) == len(prefixes)
    assert all(ln.startswith(pfx) for ln, pfx in zip(lines, prefixes))


@pytest.mark.parametrize("argv", [
    ["converge", "--model", "gauss-log", "--budgets", "16,256", "--reps", "6",
     "--seed", "9"],
    ["bias", "--model", "bias-quad-pos", "--N", "40", "--Ms", "2,8",
     "--reps", "10", "--seed", "9"],
    ["allocate", "--model", "gauss-log", "--T", "1024", "--reps", "10",
     "--seed", "9", "--policies", "tau:alpha=1,c=1;tau:alpha=2,c=1"],
    ["collapse", "--model", "linear-gauss", "--budgets", "100,400",
     "--reps", "10", "--seed", "9"],
])
def test_worker_count_never_changes_bytes(capsys, tmp_path, argv):
    p1 = tmp_path / "w1.csv"
    p8 = tmp_path / "w8.csv"
    assert main(argv + ["--out", str(p1), "--workers", "1"]) == 0
    assert main(argv + ["--out", str(p8), "--workers", "8"]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p8.read_bytes()


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor-fault counts are compared on Linux only")
def test_a_repeated_large_row_command_faults_next_to_no_pages(capsys):
    # Every array of the kernel, phi's included, comes from the pooled
    # buffers the first call faulted in.  A phi temporary from malloc is
    # handed back and faulted in again block after block: ~225 faults.
    resource = pytest.importorskip("resource")
    argv = ["converge", "--model", "gauss-log", "--policy", "fixed-outer:N=16",
            "--budgets", "65536:1048576:3", "--reps", "2", "--workers", "1", "--seed", "1"]
    assert main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100
    capsys.readouterr()


# ---------------------------------------------------------------------- cells

def test_cell_rendering():
    assert _cell(None) == ""
    assert _cell(float("nan")) == "degenerate"
    assert _cell(float("inf")) == "degenerate"
    assert _cell(0.125) == "0.125"
    assert _cell(7) == "7"


# ------------------------------------------------------------------------ fuzz

# Each choice is valid about half the time, so runs get past the checks too.
_FIELDS = st.sampled_from(["1", "0.5", "2"]) | st.sampled_from(
    ["0", "-1", "inf", "nan", "1e308", "x"])
_POLICY = st.one_of(
    st.builds("tau:alpha={},c={}".format, _FIELDS, _FIELDS),
    st.builds("fixed-inner:M={}".format, _FIELDS),
    st.builds("fixed-outer:N={}".format, _FIELDS),
    st.sampled_from(["", "tau:beta=1", "spin:k=1"]),
)
# Comma lists and geometric grids, every budget at most 4096.
_BUDGETS = st.one_of(
    st.lists(st.integers(-2, 4096), min_size=1, max_size=3).map(
        lambda xs: ",".join(map(str, xs))),
    st.builds("{}:{}:{}".format, st.integers(-2, 4096), st.integers(-2, 4096),
              st.integers(0, 4)),
)


@st.composite
def _argv(draw):
    sub = draw(st.sampled_from(["converge", "bias", "allocate", "collapse", "models",
                                "frobnicate"]))
    if sub == "models":
        return [sub] + draw(st.sampled_from([[], ["list"], ["all"]]))
    argv = [sub, "--model", draw(st.sampled_from(sorted(CATALOG) + ["no-such-model"]))]
    if sub == "converge":
        argv += ["--budgets", draw(_BUDGETS), "--policy", draw(_POLICY)]
    elif sub == "bias":
        argv += ["--N", str(draw(st.integers(-1, 16))), "--Ms", draw(_BUDGETS)]
    elif sub == "allocate":
        policies = draw(st.lists(_POLICY, min_size=1, max_size=3))
        argv += ["--T", str(draw(st.integers(-2, 4096))), "--policies", ";".join(policies)]
    elif sub == "collapse":
        argv += ["--budgets", draw(_BUDGETS)]
    return argv + ["--reps", str(draw(st.sampled_from([2, 3, 4, -1, 0, 1]))),
                   "--workers", str(draw(st.sampled_from([1, 2, 3, 0]))),
                   "--format", draw(st.sampled_from(["csv", "json"])),
                   "--seed", str(draw(st.integers(0, 3)))]


@given(argv=_argv())
@settings(max_examples=40, deadline=None)
def test_main_never_raises(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3), argv


def _python(args, **kwargs):
    """Run a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable] + args, env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


def test_cli_import_does_not_load_scipy_special():
    # scipy.special serves the quadrature oracle only; a fresh interpreter
    # that imports the CLI and builds a model must not pay for it.
    code = ("import sys, nestmc.cli; from nestmc.models import CATALOG; "
            "CATALOG['gauss-log'](); print('scipy.special' in sys.modules)")
    out = _python(["-c", code], check=True)
    assert out.stdout.strip() == "False"


def test_python_m_nestmc():
    out = _python(["-m", "nestmc", "models"])
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout.startswith("bias-quad-neg ")


@pytest.mark.parametrize("argv", [
    ["converge", "--model", "gauss-log", "--budgets", "16,64", "--reps", "1000000000000"],
    ["converge", "--model", "gauss-log", "--budgets", "16,64", "--reps", "1000000000000",
     "--workers", "2"],
    ["converge", "--model", "gauss-log", "--budgets", "16:1024:1000000000000"],
    # N = 10**15 outer terms in one row: one request for all of them, not
    # block after block until the cap.
    ["allocate", "--model", "gauss-log", "--T", "1000000000000000", "--reps", "2",
     "--policies", "fixed-inner:M=1"],
    # The same request fails inside a span, in either of the two processes.
    ["allocate", "--model", "gauss-log", "--T", "1000000000000000", "--reps", "2",
     "--policies", "fixed-inner:M=1", "--workers", "2"],
])
def test_unallocatable_request_exits_2(argv):
    # A 1 GiB address-space cap on the child alone makes the TiB-sized
    # request fail the same way under any overcommit setting, and turns a
    # fill that only fails once memory runs out into an error about a small
    # array.
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    out = _python(["-m", "nestmc"] + argv, preexec_fn=cap)
    assert out.returncode == 2 and out.stdout == ""
    assert re.match(r"error: Unable to allocate [\d.]+ [TP]iB ", out.stderr), out.stderr
    assert out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr
