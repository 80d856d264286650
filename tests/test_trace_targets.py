"""Every function the benchmark's trace mode wraps still exists.

perfbench/tracer.py resolves each TARGETS entry with getattr and no default,
so a dropped or renamed name breaks ``perfbench/run.py --trace 1``.  The
tracer is loaded by path: perfbench is not a package."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module,function", [t[:2] for t in load_targets()])
def test_trace_target_resolves(module, function):
    obj = importlib.import_module(f"gaborfio.{module}")
    for part in function.split("."):        # Class.method names
        obj = getattr(obj, part)
    assert callable(obj)
