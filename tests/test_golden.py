"""Report bytes pinned against committed golden files.

Each case is one fixed command line whose report must equal its file under
``tests/golden/`` byte for byte.  The grids are chosen to cross every block
shape of the sampling kernel, which must not change a value: N*M = 1, rows
of several replications per block and at the block budget (2**16
elements, one replication per block), a row of
one outer draw per block whose M inner draws take one pairwise mean
(2**15 < M <= 2**16), rows past the inner chunk (M > 2**16), rep schedules,
CRN races, collapsed sweeps and a two-worker run.

Regenerate the files only for a deliberate stream change:

    PYTHONPATH=src python tests/test_golden.py

The files were made with numpy's AVX-512 float64 ``log`` and ``exp``, which
differ from its baseline (libm) code by one ulp on some inputs, and so do
the reports.  A failing case names the class this machine's numpy is in,
found by the probe below.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nestmc.cli import main

GOLDEN = Path(__file__).parent / "golden"

# Inputs on which numpy 2.4's AVX-512 float64 log (exp) and its baseline
# code differ, as float.hex, with the AVX-512 and then the baseline result.
# Found among 2**20 arguments of each kind the kernel takes, by running
# both classes on one machine, the second under BASELINE_ENV.
_PROBE = {
    np.log: [("0x1.bec5086572273p-1", "-0x1.171abcd330413p-3", "-0x1.171abcd330412p-3"),
             ("0x1.d65cbdbae4ab7p-1", "-0x1.5b6db9e5bad1fp-4", "-0x1.5b6db9e5bad20p-4"),
             ("0x1.f8f759f50ce0dp-1", "-0x1.c5486bfb8d441p-7", "-0x1.c5486bfb8d440p-7")],
    np.exp: [("-0x1.06342c1090620p+0", "0x1.6fb074600d370p-2", "0x1.6fb074600d371p-2"),
             ("-0x1.f6e9a2874493cp-1", "0x1.7f744fe3ecb14p-2", "0x1.7f744fe3ecb15p-2"),
             ("-0x1.d523a1a920691p+1", "0x1.a36f9528e9d9bp-6", "0x1.a36f9528e9d9cp-6")],
}
BASELINE_ENV = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


def dispatch_class() -> str:
    """'AVX-512', 'baseline' or 'neither': whose log and exp this numpy computes."""
    got = [float(fn(np.float64(float.fromhex(x)))) for fn, rows in _PROBE.items()
           for x, _, _ in rows]
    for col, name in ((1, "AVX-512"), (2, "baseline")):
        if got == [float.fromhex(row[col]) for rows in _PROBE.values() for row in rows]:
            return name
    return "neither"


CASES = {
    # tau:alpha=1 splits: 2x2, 64x64, 128x128 (= 2**14), 130x130, 256x256 (= 2**16).
    "converge-straddle.csv": [
        "converge", "--model", "gauss-log", "--budgets", "4,4096,16384,16900,65536",
        "--reps", "6", "--rep-schedule", "65536:3", "--seed", "3"],
    # N*M = 1 rows, a replication count that is not a power of two.
    "converge-fixed-inner.json": [
        "converge", "--model", "bias-quad-pos", "--policy", "fixed-inner:M=1",
        "--budgets", "1,2,7", "--reps", "11", "--drop-smallest", "1",
        "--seed", "5", "--format", "json"],
    # M = 20000 and 70000 at N = 3: one row of one replication per block and one
    # above the within-row chunk; two worker threads.
    "converge-workers2.json": [
        "converge", "--model", "gauss-log", "--policy", "fixed-outer:N=3",
        "--budgets", "12,60000,210000", "--reps", "5", "--seed", "8",
        "--format", "json", "--workers", "2"],
    # M = 40000 at N = 2: one outer draw per block, its inner draws in one
    # pairwise mean.
    "converge-inner-row.csv": [
        "converge", "--model", "gauss-log", "--policy", "fixed-outer:N=2",
        "--budgets", "2,80000", "--reps", "3", "--seed", "9"],
    "bias.csv": [
        "bias", "--model", "bias-quad-pos", "--N", "40", "--Ms", "1:64:4",
        "--reps", "8", "--seed", "2"],
    "bias.json": [
        "bias", "--model", "gauss-log", "--N", "20", "--Ms", "2,1000",
        "--reps", "5", "--seed", "4", "--format", "json"],
    "allocate.csv": [
        "allocate", "--model", "gauss-log", "--T", "4096", "--reps", "10",
        "--seed", "1", "--policies",
        "tau:alpha=0.5,c=1;tau:alpha=1,c=1;fixed-inner:M=4"],
    # T = 40000: one replication per block in every shape.
    "allocate.json": [
        "allocate", "--model", "bias-quad-neg", "--T", "40000", "--reps", "4",
        "--seed", "6", "--format", "json", "--policies",
        "tau:alpha=1,c=1;fixed-outer:N=2"],
    "collapse.csv": [
        "collapse", "--model", "linear-gauss", "--budgets", "100,1000",
        "--reps", "8", "--seed", "2"],
    "collapse.json": [
        "collapse", "--model", "linear-gauss", "--budgets", "16:20000:3",
        "--reps", "4", "--seed", "0", "--format", "json"],
}


def _report(argv, path: Path) -> bytes:
    code = main(argv + ["--out", str(path)])
    assert code == 0, (argv, code)
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path, capsys):
    got = _report(CASES[name], tmp_path / name)
    capsys.readouterr()
    assert got == (GOLDEN / name).read_bytes(), (
        f"report differs from golden/{name}, made under AVX-512 log/exp; "
        f"this machine's numpy computes them in the {dispatch_class()} class")


def test_dispatch_probe_names_the_baseline_class():
    # numpy started with its AVX-512 code disabled must probe as baseline.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, **BASELINE_ENV,
               PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    out = subprocess.run([sys.executable, "-c",
                          "from test_golden import dispatch_class; print(dispatch_class())"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.stdout == "baseline\n", out.stderr


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code = main(argv + ["--out", str(GOLDEN / name)])
        if code != 0:
            sys.exit(f"{name}: exit {code}")
