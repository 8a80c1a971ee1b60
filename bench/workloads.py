"""Workload definitions, report parsing and the correctness checks.

Each workload is one fixed `nestmc` command line; the benchmark appends
`--seed <n>`.  The expected row grid of each workload is written out here
by hand rather than recomputed through the package, so that a change to
budget splitting shows up as a failed check instead of moving silently.

This module does not import `nestmc`, so the self-test can run without it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

Grid = Tuple[tuple, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    args: Tuple[str, ...]
    # Expected (T, N, M, reps) per converge row, or (policy, N, M) per allocate
    # row sorted by policy; allocate rows are ranked, so their order depends on
    # the seed.
    grid: Grid

    @property
    def kind(self) -> str:
        return self.args[0]

    def flag(self, name: str) -> int:
        return int(self.args[self.args.index(name) + 1])

    @property
    def reps(self) -> int:
        return self.flag("--reps")

    @property
    def workers(self) -> int:
        return self.flag("--workers")

    def argv(self, seed: int, workers: Optional[int] = None) -> List[str]:
        args = list(self.args)
        if workers is not None:
            args[args.index("--workers") + 1] = str(workers)
        return args + ["--seed", str(seed)]


_POLICIES = "tau:alpha=0.5,c=1;tau:alpha=1,c=1;tau:alpha=2,c=1"

WORKLOADS = {w.name: w for w in (
    # Every row has N*M <= 1024: the fixed cost of each nmc_estimate call and
    # the per-replication loop dominate.  The single-threaded baseline.
    Workload(
        name="small-rows",
        args=("converge", "--model", "gauss-log", "--budgets", "16:1024:6",
              "--reps", "200", "--workers", "1"),
        grid=((16, 4, 4, 200), (37, 6, 6, 200), (84, 9, 9, 200),
              (194, 13, 13, 200), (446, 21, 21, 200), (1024, 32, 32, 200))),
    # M up to 65536 at N=16: draw generation dominates, per-call overhead is
    # small, and the last row (M > half a sampling chunk) takes the within-row path.
    Workload(
        name="large-rows",
        args=("converge", "--model", "gauss-log", "--policy", "fixed-outer:N=16",
              "--budgets", "65536:1048576:3", "--reps", "2", "--workers", "1"),
        grid=((65536, 16, 4096, 2), (262144, 16, 16384, 2),
              (1048576, 16, 65536, 2))),
    # compare_policies reuses each replication's stream across 40x1600, 256x256
    # and 1600x40, so a change that favours N >> M or M >> N shows here.  The
    # only workload on two threads.
    Workload(
        name="crn-race",
        args=("allocate", "--model", "gauss-log", "--T", "65536",
              "--policies", _POLICIES, "--reps", "20", "--workers", "2"),
        grid=(("tau:alpha=0.5,c=1", 40, 1600), ("tau:alpha=1,c=1", 256, 256),
              ("tau:alpha=2,c=1", 1600, 40))),
)}


def parse_report(text: str) -> List[dict]:
    """Rows of a CSV report as dicts of strings; comment lines are skipped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except (TypeError, ValueError):
        return False


def row_grid(w: Workload, rows: Sequence[dict]) -> Grid:
    if w.kind == "allocate":
        return tuple(sorted((r["policy"], int(r["N"]), int(r["M"])) for r in rows))
    return tuple((int(r["T"]), int(r["N"]), int(r["M"]), int(r["reps"])) for r in rows)


def draws(w: Workload, rows: Sequence[dict]) -> int:
    """Sum of N*M*reps over the report's rows (allocate rows share --reps)."""
    if w.kind == "allocate":
        return sum(int(r["N"]) * int(r["M"]) * w.reps for r in rows)
    return sum(int(r["N"]) * int(r["M"]) * int(r["reps"]) for r in rows)


def check(w: Workload, rc: Optional[int], text: str) -> List[str]:
    """Problems with one run's exit code and report; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        rows = parse_report(text)
        grid = row_grid(w, rows)
    except (KeyError, TypeError, ValueError) as err:
        return [f"unparsable report: {err!r}"]
    problems = []
    if grid != w.grid:
        problems.append(f"row grid {grid} != expected {w.grid}")
    bad = [c for r in rows for k, c in r.items()
           if k != "policy" and not _finite(c)]
    if bad:
        problems.append(f"non-finite cells {bad}")
    if w.kind == "allocate" and sorted(int(r["rank"]) for r in rows) != list(
            range(1, len(rows) + 1)):
        problems.append("ranks are not 1..n")
    return problems
