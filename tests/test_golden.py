"""Report bytes pinned against committed golden files.

Each case is one fixed command line whose report must equal its file under
``tests/golden/`` byte for byte.  The grids are chosen to cross every block
shape of the sampling kernel, which must not change a value: N*M = 1, rows
of several replications per block and at the block budget (2**16
elements, one replication per block), a row of
one outer draw per sub-block whose M inner draws take one pairwise mean
(2**15 < M <= 2**16), rows past the inner chunk (M > 2**16), rep schedules,
CRN races, collapsed sweeps and a two-worker run.

numpy's AVX-512 float64 ``log`` and ``exp`` differ from its baseline
(libm) code by one ulp on some inputs, and so do the reports.  So there is
one set of files per dispatch class, ``golden/avx512`` and
``golden/baseline``, and each case compares against the set of the class
this machine's numpy is in, found by the probe below.  A machine whose
numpy is in neither class skips the cases, naming the class.

Regenerate both sets, on a machine whose numpy dispatches AVX-512, only
for a deliberate stream change:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nestmc.cli import main

GOLDEN = Path(__file__).parent / "golden"
SETS = {"AVX-512": GOLDEN / "avx512", "baseline": GOLDEN / "baseline"}

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
    # above the within-row chunk; two workers.
    "converge-workers2.json": [
        "converge", "--model", "gauss-log", "--policy", "fixed-outer:N=3",
        "--budgets", "12,60000,210000", "--reps", "5", "--seed", "8",
        "--format", "json", "--workers", "2"],
    # M = 40000 at N = 2: one outer draw per sub-block, its inner draws in one
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


def golden_set() -> Path:
    """The set of files of this machine's dispatch class; skips in neither class."""
    cls = dispatch_class()
    if cls not in SETS:
        pytest.skip(f"no golden set for numpy's {cls!r} log/exp dispatch class")
    return SETS[cls]


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name, tmp_path, capsys):
    want = golden_set() / name
    got = _report(CASES[name], tmp_path / name)
    capsys.readouterr()
    assert got == want.read_bytes(), (
        f"report differs from {want.relative_to(GOLDEN.parent)}, the "
        f"{dispatch_class()} set")


def differing(tmp: Path) -> list:
    """Cases whose report, written under `tmp`, differs from this class's set."""
    return [name for name, argv in CASES.items()
            if _report(argv, tmp / name) != (golden_set() / name).read_bytes()]


def _under_baseline(code: str) -> subprocess.CompletedProcess:
    """Run python `code` with numpy's AVX-512 code disabled, this module importable."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, **BASELINE_ENV,
               PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=600)


def test_dispatch_probe_names_the_baseline_class():
    # numpy started with its AVX-512 code disabled must probe as baseline.
    out = _under_baseline("from test_golden import dispatch_class; print(dispatch_class())")
    assert out.stdout == "baseline\n", out.stderr


def test_baseline_class_reports_match_baseline_set(tmp_path):
    # Every case again with numpy's AVX-512 code disabled, against the
    # baseline set.
    out = _under_baseline(
        "from pathlib import Path; import test_golden as g\n"
        f"bad = g.differing(Path({str(tmp_path)!r}))\n"
        "print(g.dispatch_class(), bad)")
    assert out.stdout.splitlines()[-1:] == ["baseline []"], out.stdout + out.stderr


def test_neither_class_skips_and_names_it(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "dispatch_class", lambda: "neither")
    with pytest.raises(pytest.skip.Exception, match="'neither' log/exp dispatch class"):
        golden_set()


def write_set(cls: str) -> None:
    """Write the set of class `cls`, which must be this machine's numpy's."""
    if dispatch_class() != cls:
        sys.exit(f"the {cls} set needs numpy in that class; it is in {dispatch_class()}")
    SETS[cls].mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        _report(argv, SETS[cls] / name)


if __name__ == "__main__":
    write_set("AVX-512")
    done = _under_baseline("import test_golden; test_golden.write_set('baseline')")
    if done.returncode != 0:
        sys.exit(done.stdout + done.stderr)
