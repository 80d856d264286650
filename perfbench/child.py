"""One `gaborfio run` in a fresh interpreter, timed from inside.

    python3 perfbench/child.py JOB.json

JOB.json holds {"argv": [...], "out": dir, "readback": null | {"L": int},
"trace": bool, "result": path}.  The parent sets PYTHONPATH and pins the
BLAS/OpenMP pools in this interpreter's environment before it starts, so
numpy loads single-threaded.  The result file records the import time, the
wall time of the pipeline (plus the CSV read-back when asked), the exit code,
the peak resident set and, when traced, the spans of every wrapped call and
the allocation peaks of a second, untimed run of the same pipeline.
"""

import time

T_START = time.perf_counter()

import gaborfio.cli  # noqa: E402  (the start-up of `gaborfio run`)

T_IMPORTED_MONO = time.monotonic()
T_IMPORTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def readback(out_dir: str, L: int) -> None:
    """Read matrix.csv back through the library, as a user of the CSV would."""
    from gaborfio import (ModelConfig, build_frame, default_lattice,
                          gabor_matrix_from_csv, periodized_gaussian)
    config = ModelConfig(L=L)
    frame = build_frame(periodized_gaussian(config), default_lattice(config))
    gabor_matrix_from_csv(Path(out_dir) / "matrix.csv", frame)


def run(job: dict, out_dir: str) -> int:
    rc = gaborfio.cli.main(job["argv"] + ["--out", out_dir])
    if rc == 0 and job["readback"]:
        readback(out_dir, job["readback"]["L"])
    return rc


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    rc = run(job, job["out"])
    op_s = time.perf_counter() - t0

    result = {
        "rc": rc,
        "imported_mono": T_IMPORTED_MONO,
        "import_s": T_IMPORTED - T_START,
        "op_s": op_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["spans"] = list(tracer.spans)
        tracer.spans.clear()
        tracer.record_alloc = True
        run(job, job["out"] + "-alloc")
        result["alloc_spans"] = tracer.spans
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
