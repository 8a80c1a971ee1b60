"""The benchmark under bench/ still runs against the package.

The tracer (bench/tracing.py) patches package attributes by name, so a
refactor that unbinds one (say, drops an import the package itself no
longer uses) breaks ``bench/run.py --trace 1`` without failing any other
test.  A change to the CLI's reports or options can likewise make every
benchmark call fail its checks, so each workload also runs for a second.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import nestmc.estimators as estimators
import nestmc.harness as harness
import nestmc.models as models
from nestmc.rng import RngStream

BENCH = str(Path(__file__).resolve().parent.parent / "bench")


def _wrapped_names():
    return (harness.nmc_estimate, estimators.index_hash,
            *(RngStream.__dict__[a] for a in ("split", "next_uniform", "next_gaussian")),
            dict(models.CATALOG))


def test_tracer_installs_and_uninstalls():
    sys.path.insert(0, BENCH)
    try:
        from tracing import Tracer
    finally:
        sys.path.remove(BENCH)
    before = _wrapped_names()
    tracer = Tracer()
    try:
        tracer.install()
        assert harness.nmc_estimate is not before[0]
    finally:
        tracer.uninstall()
    assert _wrapped_names() == before


def _bench(*args):
    return subprocess.run([sys.executable, *args], cwd=Path(BENCH).parent,
                          capture_output=True, text=True, timeout=300)


def test_bench_selftest_passes():
    out = _bench("bench/selftest.py")
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("workload", ["small-rows", "large-rows", "crn-race"])
def test_bench_workload_runs_and_passes_its_checks(workload):
    out = _bench("bench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
