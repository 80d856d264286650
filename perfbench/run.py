"""Benchmark of `gaborfio run` pipelines, end to end and layer by layer.

    python3 perfbench/run.py --workload {decay-a,tame-b,pipeline-mix}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.

One client, closed loop: operations run one after another.  Every pipeline
run is a fresh interpreter (the CLI's one-experiment-per-process model), with
the BLAS/OpenMP pools pinned to one thread in its environment before numpy
loads.  One warm-up operation runs untimed; then whole rounds of the
workload's operations run until S seconds of them have passed.  Each output
is checked (perfbench/checks.py) outside the timed part.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same operations
with spans around the calls into each module (perfbench/tracer.py) and prints
the per-layer metrics.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:          # before numpy loads, here and in each child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import run_checks  # noqa: E402
from tracer import LAYERS, TARGETS, self_times, span_name  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
CHILD_TIMEOUT_S = 120

UNITS = {"setup_s": "s", "op_s.p50": "s", "ops_per_s": "1/s", "peak_rss_mb": "MiB"}


# ---------------------------------------------------------------------------
# workloads: seed -> operations; an operation is a list of pipeline runs
# ---------------------------------------------------------------------------

def _run(L, pipeline, operator, seed, checks, regime="A", readback=False, **extra):
    config = {"model": {"L": L, "regime": regime}, "pipeline": pipeline,
              "operator": operator, "seed": seed, **extra}
    return {"config": config, "readback": {"L": L} if readback else None,
            "checks": checks}


def _sign(rng):
    return rng.choice((1, -1))


def decay_a(rng, seed):
    """Regime A, L = 512: exact class members, one pipeline run per operation."""
    L = 512
    c1 = rng.choice((1, 2, 3, 4)) * _sign(rng)
    c2 = rng.choice((1, 2, 3)) * _sign(rng)
    c3 = rng.choice((1, 2, 3)) * _sign(rng)
    # u = -1 mod L is the unit whose dilation keeps the Gaussian smooth on the
    # torus; other units scatter it and fail the fit by design
    u = rng.choice((-1, L - 1))
    s1, s2 = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
    words = [("dft", [["dft"]]), (f"chirp:{c1}", [["chirp", c1]]),
             (f"dilate:{u}", [["dilate", u]]),
             (f"dft*chirp:{c2}", [["dft"], ["chirp", c2]])]
    ops = [[_run(L, "decay", spec, seed,
                 [["pass", {}], ["profile_total", {}], ["word_profile", {"word": word}]])]
           for spec, word in words]
    for spec in (f"fio1:phase=chirp:{c3},symbol=random-smooth:{s1}",
                 f"kn:symbol=random-smooth:{s2}"):
        ops.append([_run(L, "decay", spec, seed, [["pass", {}], ["profile_total", {}]])])
    return ops


def tame_b(rng, seed):
    """Regime B, L = 256: one operation is one pass over three runs."""
    L = 256
    T = L ** 0.5
    # sine periods matched to the grid; eps is fixed because the Newton work
    # of fio2 grows with it (0.92 s at eps = 0.05, 1.18 s at 0.3)
    phase = f"sine:0.2:{T:g}:{L / T:g}"
    s1, s2 = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
    fit = [["pass", {}], ["profile_total", {}]]
    return [[
        _run(L, "decay", f"fio1:phase={phase},symbol=random-smooth:{s1}", seed, fit,
             regime="B"),
        _run(L, "decay", f"fio2:phase={phase},symbol=random-smooth:{s2}", seed, fit,
             regime="B"),
        _run(L, "decay", "fio1:phase=kn,symbol=ones", seed,
             fit + [["word_profile", {"word": []}]], regime="B"),
    ]]


def pipeline_mix(rng, seed):
    """Every other pipeline at L = 64, then reading matrix.csv back."""
    L = 64
    c = rng.choice((1, 2, 3)) * _sign(rng)
    s1, s2 = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
    ok = [["pass", {}]]
    return [[
        _run(L, "invert", f"chirp:1*perturb-id:0.1:{s1}", seed,
             ok + [["profile_total", {}], ["invert", {"eps": 0.1}]]),
        _run(L, "compose", f"chirp:{c}*dft", seed,
             ok + [["profile_total", {}], ["word_profile", {"word": [["chirp", c], ["dft"]]}]]),
        _run(L, "factorize", f"multiplier:0.1*chirp:{c}", seed,
             ok + [["profile_total", {}], ["factorize", {}]], word=[f"chirp:{c}"]),
        _run(L, "sparsity-sweep", f"chirp:{c}", seed, ok + [["sweep", {}]]),
        _run(L, "symbol-class", f"kn:symbol=random-smooth:{s2}", seed, ok),
        _run(L, "offgrid", f"chirp:{c}", seed, ok),
        _run(L, "gabor-matrix", f"chirp:{c}", seed, ok + [["matrix_csv", {"L": L, "c": c}]],
             readback=True),
    ]]


WORKLOADS = {"decay-a": decay_a, "tame-b": tame_b, "pipeline-mix": pipeline_mix}


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """The parent's environment (thread pools already pinned) with ./src first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def run_pipeline(run: dict, d: Path, trace: bool, env: dict) -> dict:
    """One pipeline run in a fresh interpreter; returns its result record."""
    d.mkdir(parents=True)
    (d / "config.json").write_text(json.dumps(run["config"]))
    job = {"argv": ["run", str(d / "config.json")], "out": str(d / "out"),
           "readback": run["readback"], "trace": trace, "result": str(d / "result.json")}
    (d / "job.json").write_text(json.dumps(job))
    with open(d / "stderr.txt", "w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(d / "job.json")],
                                env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        wall = time.monotonic() - t_spawn
    result_path = d / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        lines = (d / "stderr.txt").read_text().strip().splitlines() or [""]
        return {"wall": wall, "rc": None,
                "error": f"child exited {proc.returncode}: {lines[-1]}"}
    result = json.loads(result_path.read_text())
    result["wall"] = wall
    result["setup_s"] = result["imported_mono"] - t_spawn
    return result


def run_op(op: list, d: Path, trace: bool, env: dict) -> dict:
    """All pipeline runs of one operation, then the checks of their outputs."""
    rec = {"wall": 0.0, "op_s": 0.0, "rss_mb": 0.0, "setup_s": [], "import_s": [],
           "spans": [], "alloc_spans": [], "failed": None, "errors": []}
    for j, run in enumerate(op):
        res = run_pipeline(run, d / str(j), trace, env)
        rec["wall"] += res["wall"]
        if res["rc"] != 0:
            rec["failed"] = res.get("error") or (
                f"{run['config']['pipeline']} {run['config']['operator']} exited {res['rc']}")
            break
        rec["op_s"] += res["op_s"]
        rec["rss_mb"] = max(rec["rss_mb"], res["maxrss_mb"])
        rec["setup_s"].append(res["setup_s"])
        rec["import_s"].append(res["import_s"])
        rec["spans"].append(res.get("spans", []))
        rec["alloc_spans"].append(res.get("alloc_spans", []))
        rec["errors"] += [f"{run['config']['operator']}: {e}"
                          for e in run_checks(d / str(j) / "out", run["checks"])]
    shutil.rmtree(d)
    return rec


def measure(ops: list, seconds: float, trace: bool) -> list:
    """A warm-up operation, then whole rounds until `seconds` have passed."""
    env = child_env()
    opdir = WORK / "ops"
    shutil.rmtree(opdir, ignore_errors=True)
    warm = run_op(ops[0], opdir / "warm", trace, env)
    if warm["failed"]:
        sys.exit(f"warm-up operation failed: {warm['failed']}")
    records, busy = [], 0.0
    while busy < seconds:
        for op in ops:
            rec = run_op(op, opdir / str(len(records)), trace, env)
            records.append(rec)
            busy += rec["wall"]
    return records


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(done: list) -> dict:
    op_s = [r["op_s"] for r in done]
    values = {
        "setup_s": statistics.median(s for r in done for s in r["setup_s"]),
        "op_s.p50": statistics.median(op_s),
        "ops_per_s": len(op_s) / sum(op_s),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in done),
    }
    return {k: metric(v, UNITS[k]) for k, v in values.items()}


def per_layer(done: list) -> tuple[dict, list]:
    """Per wrapped function: median self seconds per operation, calls per
    operation and the median tracemalloc peak per call (from the untimed
    allocation run); per module: median self seconds per operation."""
    per_op = []
    for r in done:
        merged: dict = {}
        for spans, alloc_spans in zip(r["spans"], r["alloc_spans"]):
            allocs = {n: v[2] for n, v in self_times(alloc_spans).items()}
            for name, (self_s, calls, _) in self_times(spans).items():
                s0, c0, a0 = merged.get(name, (0.0, 0, []))
                merged[name] = (s0 + self_s, c0 + calls, a0 + allocs.get(name, []))
        per_op.append(merged)
    out = {}
    for module, function, alloc in TARGETS:
        name = span_name(module, function)
        rows = [m.get(name, (0.0, 0, [])) for m in per_op]
        out[f"{name}.self_s"] = metric(statistics.median(r[0] for r in rows), "s")
        out[f"{name}.calls"] = metric(sum(r[1] for r in rows) / len(rows), "count")
        if alloc:
            allocs = [a for r in rows for a in r[2]]
            out[f"{name}.alloc_mb"] = metric(statistics.median(allocs) if allocs else 0.0,
                                             "MiB")
    for layer in LAYERS:
        names = [span_name(m, f) for m, f, _ in TARGETS if m == layer]
        out[f"layer.{layer}.self_s"] = metric(statistics.median(
            sum(m[n][0] for n in names if n in m) for m in per_op), "s")
    out["cli.import_s"] = metric(statistics.median(s for r in done for s in r["import_s"]), "s")
    out["traced.op_s.p50"] = metric(statistics.median(r["op_s"] for r in done), "s")
    return out, per_op


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gaborfio" / "__init__.py").is_file():
        sys.exit(f"no gaborfio sources under {ROOT / 'src'}")

    rng = random.Random(f"{args.workload}:{args.seed}")
    ops = WORKLOADS[args.workload](rng, args.seed)
    records = measure(ops, args.seconds, bool(args.trace))
    done = [r for r in records if not r["failed"]]
    if not done:
        sys.exit(f"no operation completed: {records[0]['failed']}")
    errors = [e for r in done for e in r["errors"]]
    for r in records:
        if r["failed"]:
            print(f"FAILED: {r['failed']}", file=sys.stderr)
    for e in errors:
        print(f"CHECK: {e}", file=sys.stderr)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, per_op = per_layer(done)
        (WORK / f"trace-{tag}.json").write_text(json.dumps(
            [{n: {"self_s": v[0], "calls": v[1], "alloc_mb": v[2]} for n, v in m.items()}
             for m in per_op]))
    else:
        metrics = end_to_end(done)
    result = {"correct": not errors, "attempted": len(records),
              "failed": len(records) - len(done), "metrics": metrics}
    (WORK / f"result-{tag}.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
