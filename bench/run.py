"""nestmc benchmark: one workload, timed in-process through `nestmc.cli.main`.

    python3 bench/run.py --workload small-rows --seed 1 --seconds 30 --trace 0

Closed loop: one CLI invocation at a time, from one process, appending
`--seed <n>` to the workload's command line (see workloads.py).

`--trace 0` reports the end-to-end metrics.  Each call is timed between two
runs of a fixed reference kernel (`reference_seconds`), and its wall time is
reported in units of the kernel's time beside it: on a host whose speed
drifts by tens of percent from minute to minute, that ratio holds still while
seconds do not.  Also reported: draws (sum of N*M*reps over the report's
rows) per such unit, the shortest set-up time of a fresh interpreter, taken
at even steps through the run, the process's peak resident memory, and the
share of calls whose report passed the checks.  `--trace 1` alternates
untraced and traced calls and reports the per-layer metrics of tracing.py,
the wall time in seconds, and the layer sweep of sweep.py.

Every call's report is checked: exit code, row grid, finite cells, bytes
identical to the first call at the seed (traced calls included) and, for a
threaded workload, to a `--workers 1` call.

The first stdout line records the machine and the run; the last line is
the result: {"correct", "attempted", "failed", "metrics"}.  `src/` must sit
beside this directory; without it the benchmark exits 2 and prints no
result.  table.py prints every workload as a table; selftest.py tests this
directory's own logic.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from workloads import WORKLOADS, Workload, check, draws, parse_report

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 10
# A fresh interpreter imports the CLI, builds the model the workloads use and
# prints the monotonic clock, which is shared across processes.
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import nestmc.cli; "
              "from nestmc.models import CATALOG; CATALOG['gauss-log'](); "
              "import time; print(time.monotonic())")

Metrics = Dict[str, Tuple[float, str]]


def setup_seconds() -> float:
    """Time from spawning an interpreter to its model being built.

    The child reads the clock itself, so the parent's polling interval while
    it waits for the child to exit does not quantise the result.
    """
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                          check=True, timeout=120, capture_output=True, text=True)
    return float(done.stdout) - t0


_REF_WORDS = np.arange(1024, dtype=np.uint64)


def reference_seconds() -> float:
    """Time of a fixed kernel of small-array numpy and Python loops (~15 ms).

    It runs no `nestmc` code, so a change to the package cannot move it, and
    it slows with the host as the package's per-call code does.  Its arrays
    stay small, so it leaves the allocator as it found it.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(600):
        y = (_REF_WORDS * np.uint64(0x9E3779B97F4A7C15)) ^ (_REF_WORDS >> np.uint64(29))
        acc += float(np.mean(np.log1p(y.astype(np.float64))))
        acc += sum(j * j for j in range(40))
    return time.perf_counter() - t0


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True, timeout=30)
    return r.stdout.strip() or "unknown"


def _src_sha256() -> str:
    h = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def machine_info() -> dict:
    import scipy
    return {"cpu_count": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "commit": _git_commit(),
            "src_sha256": _src_sha256()}


class Runner:
    """Runs one workload at one seed and checks every report it gets."""

    def __init__(self, w: Workload, seed: int, main: Callable):
        self.w, self.seed, self.main = w, seed, main
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[str] = None

    def run(self, main: Optional[Callable] = None, workers: Optional[int] = None,
            label: str = "run") -> float:
        """Wall seconds of one `main(argv)` call, after checking its report."""
        argv = self.w.argv(self.seed, workers)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = (main or self.main)(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        wall = time.perf_counter() - t0
        text = buf.getvalue()
        problems = check(self.w, rc, text)
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            problems.append("report bytes differ from the first run at this seed")
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAIL {self.w.name} {label}: {'; '.join(problems)}", file=sys.stderr)
        return wall

    def run_ref(self) -> Tuple[float, float]:
        """Wall seconds of one checked call, and the reference kernel's mean
        time just before and just after it."""
        before = reference_seconds()
        wall = self.run()
        return wall, (before + reference_seconds()) / 2

    def check_workers(self) -> None:
        """A threaded workload must give the bytes of a --workers 1 run."""
        if self.w.workers > 1:
            self.run(workers=1, label="--workers 1 check")


def end_to_end(r: Runner, seconds: float) -> Metrics:
    r.run(label="warm-up")
    ratios: List[float] = []
    setups: List[float] = []
    start = time.perf_counter()
    cycle = 0.0
    # Start a call only if one as long as the last still ends in the window.
    # Set-up is timed at even steps through the window, so that it meets the
    # host at its fastest at least once; the shortest time is reported.
    while len(ratios) < 3 or time.perf_counter() + cycle <= start + seconds:
        if len(setups) * seconds <= (time.perf_counter() - start) * SETUP_REPEATS:
            setups.append(setup_seconds())
        t0 = time.perf_counter()
        wall, ref = r.run_ref()
        cycle = time.perf_counter() - t0
        ratios.append(wall / ref)
    r.check_workers()
    wall_ref = statistics.median(ratios)
    n_draws = draws(r.w, parse_report(r.reference or ""))
    return {
        "wall_ref": (wall_ref, "ref"),
        "draws_per_ref": (n_draws / wall_ref, "1/ref"),
        "setup_s": (min(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "pass_frac": (1.0 - r.failed / r.attempted, "frac"),
    }


def per_layer(r: Runner, seconds: float) -> Metrics:
    from sweep import sweep
    from tracing import Tracer, calibrate, layer_metrics, summarize

    r.run(label="warm-up")
    overhead = calibrate()
    untraced: List[float] = []
    refs: List[float] = []
    traced: List[float] = []
    stats: dict = {}
    t_end = time.perf_counter() + seconds
    while len(traced) < 2 or (time.perf_counter() + untraced[-1] + 2 * refs[-1]
                              + traced[-1] <= t_end):
        wall, ref = r.run_ref()
        untraced.append(wall)
        refs.append(ref)
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(r.run(main=tracer.wrap("cli.main", r.main), label="traced"))
        finally:
            tracer.uninstall()
        summarize(tracer.spans(), overhead, into=stats)
    r.check_workers()
    print(f"# tracer ns per span: {overhead[0]:.0f} inside, {overhead[1]:.0f} outside")
    print("# span calls self_ms_per_call total_ms_per_call counts_per_call")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1].self_ns):
        n = len(traced)
        print(f"# {name} {st.calls / n:g} {st.self_ns / n / 1e6:.3f} "
              f"{st.total_ns / n / 1e6:.3f} {[c / n for c in st.counts]}")
    metrics = layer_metrics(stats, len(traced), r.w.workers,
                            statistics.median(traced), statistics.median(untraced),
                            len((r.reference or "").encode()))
    metrics["run.wall_s"] = (statistics.median(untraced), "s")
    metrics["run.ref_ms"] = (statistics.median(refs) * 1e3, "ms")
    metrics.update(sweep(r.seed))
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nestmc" / "__init__.py").is_file():
        print(f"error: no nestmc package under {SRC}", file=sys.stderr)
        return 2
    # At most the two threads of crn-race: keep native pools single-threaded.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import nestmc.cli
    if not Path(nestmc.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported nestmc from {nestmc.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    print(json.dumps({"machine": machine_info(),
                      "run": {"workload": w.name, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "argv": w.argv(args.seed)}}))
    r = Runner(w, args.seed, nestmc.cli.main)
    metrics = (per_layer if args.trace else end_to_end)(r, args.seconds)
    print(json.dumps({"correct": r.failed == 0, "attempted": r.attempted,
                      "failed": r.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
