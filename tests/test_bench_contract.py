"""The benchmark's tracer (bench/tracing.py) still finds every name it wraps.

The tracer patches package attributes by name, so a refactor that unbinds
one (say, drops an import the package itself no longer uses) breaks
``bench/run.py --trace 1`` without failing any other test.
"""

import sys
from pathlib import Path

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
