"""Compare the CLI's report bytes of two source trees, run by run.

    python3 tools/compare_reports.py PARENT_TREE CHANGE_TREE

Each tree is a checkout holding `src/nestmc`.  The script runs each of the
13 command lines below at `--workers` 1, 2 and 8, as `python -m nestmc`
from each tree's `src`, in a fresh interpreter under a 1 GiB address-space
limit (`RLIMIT_AS`) with `OPENBLAS_NUM_THREADS=1`.  Four lines fault on
purpose (a run too large to allocate, R = 1, an unknown model, N = 0), so
their one-line `error:` messages are compared too.  It prints every run
whose stdout, stderr or exit code differs between the trees, then
`match=N/39`, and exits 1 on any difference, 0 when all 39 runs match.
"""

import os
import resource
import subprocess
import sys
from pathlib import Path

LINES = [
    "converge --model gauss-log --budgets 16:1024:6 --reps 200 --seed 1",
    "converge --model gauss-log --policy fixed-outer:N=16 --budgets 65536:1048576:3 "
    "--reps 2 --seed 1",
    "allocate --model gauss-log --T 65536 "
    "--policies tau:alpha=0.5,c=1;tau:alpha=1,c=1;tau:alpha=2,c=1 --reps 20 --seed 1",
    "allocate --model gauss-log --T 65536 "
    "--policies tau:alpha=0.5,c=1;tau:alpha=1,c=1;tau:alpha=2,c=1 --reps 20 --seed 2 "
    "--format json",
    "collapse --model linear-gauss --budgets 16:20000:3 --reps 8",
    "collapse --model linear-gauss --budgets 16:20000:3 --reps 8 --format json",
    "bias --model bias-quad-pos --N 100 --Ms 2,8,32 --reps 50",
    "converge --model gauss-log --budgets 16,64 --reps 4",
    "converge --model gauss-log --budgets 16:1024:3 --reps 3000",
    "converge --model gauss-log --budgets 16,64 --reps 1000000000000",
    "converge --model gauss-log --budgets 16,64 --reps 1",
    "converge --model no-such-model --budgets 16,64",
    "bias --model bias-quad-pos --N 0 --Ms 2,8",
]
WORKERS = ("1", "2", "8")
ADDRESS_SPACE = 1 << 30


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(tree: Path, argv: list) -> tuple:
    """(stdout, stderr, exit code) of `python -m nestmc argv` from tree/src."""
    src = tree.resolve() / "src"
    env = {k: v for k, v in os.environ.items() if k != "NESTMC_SEED"}
    env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-m", "nestmc"] + argv, cwd=src, env=env,
                          capture_output=True, preexec_fn=_limit, timeout=1800)
    return done.stdout, done.stderr, done.returncode


def main(argv: list) -> int:
    if len(argv) != 3:
        print("usage: python3 tools/compare_reports.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    parent, change = Path(argv[1]), Path(argv[2])
    for tree in (parent, change):
        if not (tree / "src" / "nestmc").is_dir():
            print(f"error: {tree} holds no src/nestmc", file=sys.stderr)
            return 2
    matched = total = 0
    for line in LINES:
        for workers in WORKERS:
            args = line.split() + ["--workers", workers]
            a, b = run(parent, args), run(change, args)
            total += 1
            if a == b:
                matched += 1
                continue
            print(f"differs: {' '.join(args)}")
            for name, x, y in zip(("stdout", "stderr", "exit"), a, b):
                if x != y:
                    print(f"  {name}: parent {x!r:.200} change {y!r:.200}")
    print(f"match={matched}/{total}")
    return 0 if matched == total else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
