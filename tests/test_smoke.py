"""Whole-program smoke checks: what `import gaborfio.cli` loads, that
every demo runs to completion, and what a spawned run reports as its peak
memory."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    # -W error: a numpy warning in a demo fails it
    proc = run_python(["-W", "error", str(demo)], timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="peak_rss_mb falls back on ru_maxrss without /proc")
def test_peak_rss_is_the_run_s_own_not_its_parent_s(tmp_path):
    # ru_maxrss survives exec: a run spawned by this process would read the
    # 256 MiB held here as its own peak
    held = np.ones(2 ** 25)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": {"L": 16, "regime": "A"}, "pipeline": "decay",
                               "operator": "dft"}))
    proc = run_python(["-m", "gaborfio.cli", "run", str(cfg), "--out", str(tmp_path / "out")],
                      timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert held.sum() == 2 ** 25 and report["timings"]["peak_rss_mb"] < 150
