"""The package's public surface: every exported name is bound, and every
script in demos/ runs to completion against this checkout."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import nestmc
from nestmc.cli import main

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


def _readme_block(after: str) -> str:
    """The first fenced block of README.md after the line that starts with `after`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("\n" + after)
    return re.search(r"```\w*\n(.*?)```", text[start:], re.S).group(1)


def _same_cells(shown: str, printed: str) -> bool:
    """Equal cells, the floats within rel=1e-9: both float dispatch classes match."""
    a, b = re.split(r"[,= ]", shown), re.split(r"[,= ]", printed)
    return len(a) == len(b) and all(
        x == y or ("." in x and float(y) == pytest.approx(float(x), rel=1e-9))
        for x, y in zip(a, b))


def test_readme_converge_example_is_what_the_cli_prints():
    line, = [ln for ln in _readme_block("## Command line").splitlines()
             if ln.startswith("nestmc converge ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(line)[1:]) == 0
    printed = out.getvalue().splitlines()
    shown = _readme_block("`converge` output").splitlines()
    assert shown[0] == printed[0] and shown[-1].startswith("# slope=")
    assert _same_cells(shown[-1], printed[-1])
    rows = {ln.split(",")[0]: ln for ln in printed[1:-1]}
    assert len(rows) == 7 and "..." in shown
    for ln in shown[1:-1]:
        assert ln == "..." or _same_cells(ln, rows[ln.split(",")[0]]), ln


def test_readme_quick_start_prints_its_estimate():
    code = _readme_block("## Quick start")
    prefix = re.search(r"print\(est\.value.*# (\S+)\.\.\. vs", code).group(1)
    printed = []
    exec(code, {"print": lambda *args: printed.append(args)})
    assert repr(printed[0][0]).startswith(prefix) and len(prefix) >= 8
