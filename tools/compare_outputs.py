"""Compare the outputs of `gaborfio run` between two checkouts.

    python3 tools/compare_outputs.py BASE_CHECKOUT HEAD_CHECKOUT

Each checkout is the root of a copy of the repository; its library is
imported from its ./src.  Every config of CONFIGS runs in a fresh
interpreter per checkout, with OPENBLAS_NUM_THREADS=1 and at --threads 1
and 2.  The two runs must agree on:

* the exit code and standard error;
* report.json without its "timings" entry;
* profile.csv, report_algebra.json and matrix.csv, byte for byte;
* sweep.csv without its *_ms (apply time) columns.

Every mismatch is printed; the exit code is 1 if there is any, else 0.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THREADS = (1, 2)
RAW_FILES = ("profile.csv", "report_algebra.json", "matrix.csv")


def _cfg(L, pipeline, operator, regime="A", **extra):
    return {"model": {"L": L, "regime": regime}, "pipeline": pipeline,
            "operator": operator, **extra}


def _configs() -> list[dict]:
    """The fixed config table."""
    table = []
    # every pipeline in regimes A and B (offgrid in A only)
    for regime in ("A", "B"):
        table += [
            _cfg(16, "gabor-matrix", "chirp:1", regime),
            _cfg(32, "decay", "dft", regime),
            _cfg(32, "decay", "chirp:1", regime, output={"matrix_csv": True}),
            _cfg(32, "compose", "chirp:1*dft", regime),
            _cfg(32, "invert", "chirp:1*perturb-id:0.1:3", regime),
            _cfg(32, "factorize", "multiplier:0.1*chirp:1", regime, word=["chirp:1"]),
            _cfg(16, "symbol-class", "kn:symbol=random-smooth:5", regime),
            _cfg(32, "sparsity-sweep", "chirp:1", regime),
        ]
    table.append(_cfg(32, "offgrid", "chirp:1"))
    # offgrid whose fused passes split over two workers, and on a non-square
    # lattice with more offsets and a fractional weight exponent
    table += [_cfg(128, "offgrid", "chirp:1"),
              _cfg(32, "offgrid", "dft*chirp:2", frame={"a": 4, "b": 2},
                   offgrid={"s": 2.5, "n_offsets": 5})]
    # the operator forms of the perfbench workloads (regime A mostly at smaller L)
    for spec in ("dft", "chirp:-3", "dilate:-1", "dilate:63", "dft*chirp:2",
                 "fio1:phase=chirp:3,symbol=random-smooth:17",
                 "kn:symbol=random-smooth:29"):
        table.append(_cfg(64, "decay", spec))
    for pipeline, spec, extra in (
            ("invert", "chirp:1*perturb-id:0.1:11", {}),
            ("compose", "chirp:-2*dft", {}),
            ("factorize", "multiplier:0.1*chirp:-2", {"word": ["chirp:-2"]}),
            ("sparsity-sweep", "chirp:-2", {}),
            ("symbol-class", "kn:symbol=random-smooth:13", {}),
            ("offgrid", "chirp:-2", {}),
            ("gabor-matrix", "chirp:-2", {})):
        table.append(_cfg(64, pipeline, spec, **extra))
    # the symbol-class sweep at L = 64 in regime B too: each row of
    # translates splits into several blocks at either thread count
    table.append(_cfg(64, "symbol-class", "kn:symbol=random-smooth:13", "B"))
    # matrix.csv over several row blocks, of few and of many repeated floats
    for spec in ("chirp:1*perturb-id:0.1:5", "dft*chirp:2"):
        table.append(_cfg(128, "gabor-matrix", spec))
    # the sparsity sweep past the pipeline-mix size: rows of unequal kept
    # counts, whose padding slots hold 0
    for spec in ("chirp:1", "dft*chirp:2"):
        table.append(_cfg(128, "sparsity-sweep", spec))
    # a sampled map's sweep whose applies span several blocks of slots and
    # whose matrices several blocks of rows, at either thread count
    table.append(_cfg(256, "sparsity-sweep", "metaplectic:1,0,-1.5,1"))
    table.append(_cfg(512, "decay", "fio1:phase=chirp:-3,symbol=random-smooth:123"))
    for spec in ("fio1:phase=sine:0.2:16:16,symbol=random-smooth:3",
                 "fio2:phase=sine:0.2:16:16,symbol=random-smooth:4",
                 "fio1:phase=kn,symbol=ones"):
        table.append(_cfg(256, "decay", spec, "B"))
    # an odd n_time = 9: the last time index joins the block before it (one
    # index alone would round differently at this size); the key fold, the
    # survivor fold and matrix.csv
    odd = {"frame": {"a": 16, "b": 6}}
    table += [_cfg(144, "decay", "dft*chirp:2", **odd),
              _cfg(144, "decay", "fio2:phase=sine:0.2:8:8,symbol=random-smooth:3", "B", **odd),
              _cfg(144, "gabor-matrix", "chirp:1*perturb-id:0.1:5", **odd)]
    # the survivor fold at L = 128, whose worker count and sub-block width
    # depend on the column sources' block share
    table.append(_cfg(128, "decay", "fio2:phase=sine:0.2:8:8,symbol=random-smooth:3", "B"))
    # decay-a's size: many blocks of time indices on each worker, and the
    # key counts of two classes of columns (dft*chirp:3) and of one
    table += [_cfg(512, "decay", spec)
              for spec in ("dft", "dft*chirp:3", "kn:symbol=random-smooth:29")]
    # sampled maps over many column blocks of the survivor fold
    table.append(_cfg(1024, "decay", "fio1:phase=sine:0.2:32:32,symbol=random-smooth:7", "B"))
    table.append(_cfg(256, "decay", "fio2:phase=sine:0.5:8:8,symbol=ones"))
    # the catalog phases through fio1 and fio2
    for phase in ("kn", "chirp:2", "chirp:1.5", "chirp:-1", "chirp:0",
                  "metaplectic:1,0,1,1", "metaplectic:2,0,0,0.5", "perturbed:0.2",
                  "sine:0.2:8:8"):
        for head in ("fio1", "fio2"):
            for regime in ("A", "B"):
                for pipeline in ("decay", "invert"):
                    table.append(_cfg(32, pipeline, f"{head}:phase={phase},symbol=ones",
                                      regime))
    for regime in ("A", "B"):
        table += [_cfg(32, "decay", "metaplectic:1,0,1,1", regime),
                  _cfg(32, "decay", "metaplectic:2,0,0,0.5", regime),
                  _cfg(32, "compose", "fio1:phase=chirp:2,symbol=ones*metaplectic:1,0,-1,1",
                       regime),
                  _cfg(32, "factorize", "fio1:phase=chirp:2,symbol=ones", regime,
                       word=["chirp:2"])]
    # regime-A phases that are sampled although quadratic
    for L in (16, 64):
        for phase in ("chirp:-1.5", "chirp:-0.5", "chirp:-3.25"):
            for pipeline in ("decay", "invert", "gabor-matrix", "sparsity-sweep"):
                table.append(_cfg(L, pipeline, f"fio1:phase={phase},symbol=ones"))
        for pipeline in ("decay", "invert", "gabor-matrix", "sparsity-sweep"):
            table.append(_cfg(L, pipeline, "metaplectic:1,0,-1.5,1"))
    # failures: a degenerate A block (exit 1), not symplectic and a bad phase (exit 2)
    for spec in ("metaplectic:0,1,-1,0", "metaplectic:1,2,3,4",
                 "fio1:phase=kn:3,symbol=ones"):
        table.append(_cfg(32, "decay", spec))
    return table


CONFIGS = _configs()


def _without_ms_columns(text: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if not name.endswith("_ms")] if rows else []
    return "\n".join(",".join(row[i] for i in keep) for row in rows)


def outputs(run_dir: Path, code: int, stderr: str) -> dict:
    """What a run in run_dir (its outputs in run_dir/out) must reproduce."""
    out = run_dir / "out"
    found = {"exit": str(code), "stderr": stderr}
    report = out / "report.json"
    if report.exists():
        rep = json.loads(report.read_text())
        rep.pop("timings", None)
        found["report.json"] = json.dumps(rep, indent=2, default=str)
    for name in RAW_FILES:
        if (out / name).exists():
            found[name] = (out / name).read_bytes()
    if (out / "sweep.csv").exists():
        found["sweep.csv"] = _without_ms_columns((out / "sweep.csv").read_text())
    return found


def mismatches(base: dict, head: dict) -> list[str]:
    """The names of the outputs that differ or that only one side wrote."""
    return sorted(k for k in base.keys() | head.keys() if base.get(k) != head.get(k))


def run(checkout: Path, cfg: dict, threads: int, run_dir: Path) -> dict:
    """One `gaborfio run` of cfg from checkout in a fresh interpreter."""
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(cfg))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(checkout.resolve() / "src"))
    proc = subprocess.run([sys.executable, "-m", "gaborfio.cli", "run", "config.json",
                           "--threads", str(threads), "--out", "out"],
                          cwd=run_dir, env=env, capture_output=True, text=True)
    return outputs(run_dir, proc.returncode, proc.stderr)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, head = (Path(a) for a in argv)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, cfg in enumerate(CONFIGS):
            for threads in THREADS:
                sides = [run(c, cfg, threads, Path(tmp, f"{i}-{threads}-{side}"))
                         for side, c in (("base", base), ("head", head))]
                diff = mismatches(*sides)
                if diff:
                    failed += 1
                    print(f"MISMATCH threads={threads} {json.dumps(cfg)}: {', '.join(diff)}")
    print(f"{len(CONFIGS)} configs x {len(THREADS)} thread counts: {failed} mismatches")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
