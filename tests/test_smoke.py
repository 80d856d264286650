"""Whole-program smoke checks: what `import gaborfio.cli` loads, and that
every demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_cli_import_loads_numpy_only():
    # scipy costs more start-up than a small pipeline run; numpy's fft and
    # random submodules load lazily and belong to start-up, not to the
    # first operation
    probe = ("import sys, gaborfio.cli; "
             "print(sorted(m for m in ('scipy', 'numpy.fft', 'numpy.random') "
             "if m in sys.modules))")
    proc = run_python(["-c", probe], timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == "['numpy.fft', 'numpy.random']"


def test_six_demos_present():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_0(demo):
    proc = run_python([str(demo)], timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
