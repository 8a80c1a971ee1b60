"""Command-line front end: run experiments, emit CSV or JSON reports.

Subcommands map one-to-one onto harness runners, each of which checks its
whole configuration and then draws the run in one scheduler call: converge,
bias, allocate, collapse, plus a models listing.  The same command line always
produces byte-identical output, regardless of --workers.

Exit codes: 0 success, 2 usage or config error, 3 statistical-degeneracy
warning (more than 10% of convergence rows flagged).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .allocation import budget_grid, parse_policy
from .harness import (BiasRow, ConvergenceReport, ConvergenceRow, PolicyResult, SlopeFit,
                      compare_policies, run_bias, run_collapse, run_convergence)
from .models import CATALOG, MODEL_TAGS
from .problem import NestedProblem
from .rng import make_root

__all__ = ["main", "cmd_converge", "cmd_bias", "cmd_allocate", "cmd_collapse",
           "cmd_models"]

@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first `main` call and kept for the process.

    parse_args keeps no state in the parser: each call gets a fresh namespace
    filled from the defaults, so one parser serves every call.
    """
    ap = argparse.ArgumentParser(
        prog="nestmc",
        description="Nested Monte Carlo experiments: convergence, bias, allocation.")
    sub = ap.add_subparsers(dest="sub", required=True)

    def report(name, run, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        sp.add_argument("--model", required=True)
        return sp

    def sweep(sp):
        sp.add_argument("--budgets", required=True,
                        help="lo:hi:points (geometric) or comma list")
        sp.add_argument("--drop-smallest", type=int, default=0,
                        help="exclude this many smallest budgets from the slope fit")
        sp.add_argument("--rep-schedule", default=None,
                        help="per-budget replication overrides, e.g. 65536:200,262144:100")

    def common(sp):
        sp.add_argument("--reps", type=int, default=1000, help="replications per row")
        sp.add_argument("--seed", type=int, default=0, help="root seed")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        sp.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")
        sp.add_argument("--workers", type=int, default=1,
                        help="worker processes, at most one per CPU this process may use; "
                             "output is identical for any value")

    c = report("converge", cmd_converge, "MSE vs total budget under one policy")
    c.add_argument("--policy", default="tau:alpha=1,c=1",
                   help="tau:alpha=A,c=C | fixed-inner:M=K | fixed-outer:N=K")
    sweep(c)
    common(c)

    b = report("bias", cmd_bias, "mean error vs inner count at fixed N")
    b.add_argument("--N", type=int, required=True)
    b.add_argument("--Ms", required=True, help="lo:hi:points or comma list")
    common(b)

    a = report("allocate", cmd_allocate, "rank policies at one budget (CRN)")
    a.add_argument("--T", type=int, required=True)
    a.add_argument("--policies", required=True, help="semicolon-separated policy specs")
    common(a)

    k = report("collapse", cmd_collapse, "nested vs collapsed estimator on a linear model")
    sweep(k)
    common(k)

    m = sub.add_parser("models", help="list the model catalog")
    # models takes none of the common flags; out=None only satisfies _check_run.
    m.set_defaults(run=cmd_models, out=None)
    # No choices: argparse would test a stray flag's value against them
    # ("invalid choice: 'report.txt'") before naming the flag as unrecognized.
    m.add_argument("action", nargs="?", default="list", help="list (the default)")
    return ap


def _get_model(name: str) -> NestedProblem:
    if name not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise ValueError(f"unknown model {name!r}; known models: {known}")
    return CATALOG[name]()


def _ints(flag: str, spec: str, parts) -> List[int]:
    """`parts` of `spec`, the value of `flag`, as ints; a ValueError names the flag."""
    try:
        return [int(x) for x in parts]
    except ValueError:
        raise ValueError(f"{flag} takes integers, got {spec!r}") from None


def _parse_grid(flag: str, spec: str) -> List[int]:
    if not spec:
        raise ValueError(f"{flag} is an empty grid")
    parts = spec.split(":")
    if len(parts) == 3:
        return budget_grid(*_ints(flag, spec, parts))
    if len(parts) == 1:
        vals = _ints(flag, spec, (x for x in spec.split(",") if x.strip() != ""))
        if not vals:
            raise ValueError(f"{flag} is an empty grid, got {spec!r}")
        return vals
    raise ValueError(f"{flag} must be lo:hi:points or a comma list, got {spec!r}")


def _parse_schedule(spec: Optional[str]) -> Optional[Dict[int, int]]:
    if spec is None:
        return None
    sched: Dict[int, int] = {}
    for item in spec.split(","):
        T_str, sep, R_str = item.partition(":")
        if not sep:
            raise ValueError(f"--rep-schedule entries are T:R, got {item!r}")
        T, R = _ints("--rep-schedule", item, (T_str, R_str))
        if T in sched:
            raise ValueError(f"--rep-schedule names T={T} twice")
        sched[T] = R
    return sched


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v) if math.isfinite(v) else "degenerate"
    return str(v)


def _columns(row_type: type) -> List[str]:
    """A report's columns: the fields of its row record, in order."""
    return [f.name for f in dataclasses.fields(row_type)]


def _cells(record) -> list:
    """`record`'s fields in order; a policy is written as its name."""
    cells = (getattr(record, name) for name in _columns(type(record)))
    return [v.name if dataclasses.is_dataclass(v) else v for v in cells]


def _jnum(v):
    if v is None or (isinstance(v, float) and not math.isfinite(v)):
        return None
    return v


def _check_run(cfg: argparse.Namespace) -> None:
    """Faults in --out, caught before any computation; the harness owns every run rule."""
    if cfg.out is not None:
        folder = os.path.dirname(os.path.abspath(cfg.out))
        if not os.path.isdir(folder):
            raise ValueError(f"--out directory {folder!r} does not exist")
        if os.path.isdir(cfg.out):
            raise ValueError(f"--out {cfg.out!r} is a directory")


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise ValueError(f"cannot write --out {out!r}: {err.strerror}") from None


_Fit = Tuple[str, Optional[SlopeFit], str]


def _write_report(cfg: argparse.Namespace, columns: Sequence[str], rows: Sequence[Sequence],
                  meta: Tuple[str, Optional[str]], fits: Sequence[_Fit] = (),
                  tie: Optional[bool] = None) -> None:
    """Write one report in cfg.fmt to cfg.out or stdout.

    `meta` is (model, policy); the seed is cfg.seed.  Each fit is (prefix,
    fit, note): JSON gets `<prefix>fit` and `<prefix>fit_note` after the rows,
    CSV a `# <prefix>slope=...` comment, and a run with --out echoes
    `<prefix>slope=...` to stdout.  `tie` follows the fits, as a JSON key or
    a `# tie=true` comment.
    """
    if cfg.fmt == "json":
        model, policy = meta
        doc = {"metadata": {"model": model, "policy": policy, "seed": cfg.seed,
                            "version": __version__},
               "rows": [{k: _jnum(v) for k, v in zip(columns, row)} for row in rows]}
        for prefix, fit, note in fits:
            doc[prefix + "fit"] = None if fit is None else dataclasses.asdict(fit)
            doc[prefix + "fit_note"] = note
        if tie is not None:
            doc["tie"] = tie
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        w.writerows([_cell(v) for v in row] for row in rows)
        for prefix, fit, note in fits:
            buf.write(f"# {prefix}slope=none note={note}\n" if fit is None else
                      f"# {prefix}slope={fit.slope!r} intercept={fit.intercept!r}\n")
        if tie:
            buf.write("# tie=true\n")
        text = buf.getvalue()
    _emit(text, cfg.out)
    if cfg.out is not None:
        for prefix, fit, note in fits:
            print(f"{prefix}slope=none ({note})" if fit is None else
                  f"{prefix}slope={fit.slope!r}")


def _exit_code(*reports: ConvergenceReport) -> int:
    """3 when more than 10% of the reports' rows are flagged, else 0."""
    rows = [r for report in reports for r in report.rows]
    flagged = sum(1 for r in rows if r.flagged)
    return 3 if flagged > 0.10 * len(rows) else 0


def cmd_converge(cfg: argparse.Namespace) -> int:
    p = _get_model(cfg.model)
    policy = parse_policy(cfg.policy)
    report = run_convergence(p, policy, _parse_grid("--budgets", cfg.budgets), cfg.reps,
                             make_root(cfg.seed), rep_schedule=_parse_schedule(cfg.rep_schedule),
                             drop_smallest=cfg.drop_smallest, workers=cfg.workers)
    _write_report(cfg, _columns(ConvergenceRow), [_cells(r) for r in report.rows],
                  (report.model, policy.name), [("", report.fit, report.fit_note)])
    return _exit_code(report)


def cmd_bias(cfg: argparse.Namespace) -> int:
    p = _get_model(cfg.model)
    report = run_bias(p, cfg.N, _parse_grid("--Ms", cfg.Ms), cfg.reps, make_root(cfg.seed),
                      workers=cfg.workers)
    _write_report(cfg, _columns(BiasRow), [_cells(r) for r in report.rows],
                  (report.model, None), [("", report.fit, report.fit_note)])
    return 0


def cmd_allocate(cfg: argparse.Namespace) -> int:
    p = _get_model(cfg.model)
    policies = [parse_policy(x.strip()) for x in cfg.policies.split(";") if x.strip()]
    ranking = compare_policies(p, cfg.T, policies, cfg.reps, make_root(cfg.seed),
                               workers=cfg.workers)
    _write_report(cfg, _columns(PolicyResult), [_cells(r) for r in ranking.results],
                  (ranking.model, ";".join(pol.name for pol in policies)), tie=ranking.tie)
    return 0


def cmd_collapse(cfg: argparse.Namespace) -> int:
    p = _get_model(cfg.model)
    collapsed, nested = run_collapse(p, _parse_grid("--budgets", cfg.budgets), cfg.reps,
                                     make_root(cfg.seed),
                                     rep_schedule=_parse_schedule(cfg.rep_schedule),
                                     drop_smallest=cfg.drop_smallest, workers=cfg.workers)
    rows = [[rep.estimator.name] + _cells(r) for rep in (collapsed, nested) for r in rep.rows]
    _write_report(cfg, ["estimator"] + _columns(ConvergenceRow), rows,
                  (p.name, nested.policy.name),
                  [("collapsed_", collapsed.fit, collapsed.fit_note),
                   ("nested_", nested.fit, nested.fit_note)])
    return _exit_code(collapsed, nested)


def cmd_models(cfg: argparse.Namespace) -> int:
    if cfg.action != "list":
        raise ValueError(f"unknown models action {cfg.action!r}; the only action is 'list'")
    lines = []
    for name in sorted(CATALOG):
        p = CATALOG[name]()
        truth = "none" if p.truth is None else f"{float(p.truth):.6f}"
        tags = MODEL_TAGS.get(name, "")
        lines.append(f"{name:16s} truth={truth:12s} tags={tags}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        cfg = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        _check_run(cfg)
        return cfg.run(cfg)
    except (ValueError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

