"""The package's public surface: every exported name is bound, and every
script in demos/ runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import nestmc

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def test_every_exported_name_is_bound():
    # A stale __all__ entry breaks star-imports only, so check it directly.
    namespace = {}
    exec("from nestmc import *", namespace)
    assert [name for name in nestmc.__all__ if name not in namespace] == []


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
