"""Print the benchmark's metrics as a table, each workload in a fresh process.

    python3 bench/table.py [--seed 1] [--seconds 10] [--trace]

Without --trace: one row per workload with every end-to-end metric and its
unit, and whether every report passed the correctness check.  With --trace:
one row per per-layer metric and one column per workload.  The machine and
each workload's command line head the table.  Exits 1 if any run fails or
any check does not pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    cmd = [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[0]), json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    results = {}
    for name in WORKLOADS:
        info, results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        if len(results) == 1:
            print("machine:", json.dumps(info["machine"]))
        print(f"{name}: nestmc {' '.join(info['run']['argv'])}")
    print()

    first = next(iter(results.values()))["metrics"]
    if args.trace:
        print(f"{'metric':40s} {'unit':8s} " + " ".join(f"{w:>14s}" for w in results))
        for m, v in first.items():
            cells = " ".join(f"{r['metrics'][m]['value']:14.6g}" for r in results.values())
            print(f"{m:40s} {v['unit']:8s} {cells}")
    else:
        heads = [f"{m} ({v['unit']})" for m, v in first.items()]
        print(f"{'workload':12s} " + " ".join(f"{h:>20s}" for h in heads)
              + "  correct  failed/attempted")
        for name, r in results.items():
            cells = " ".join(f"{r['metrics'][m]['value']:20.6g}" for m in first)
            print(f"{name:12s} {cells}  {str(r['correct']):7s}  {r['failed']}/{r['attempted']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
