"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload decay-a --runs 10 [--seconds 20]
                                [--first-seed 1] [--trace 0]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) and
prints, for each metric, the median of the runs and the distance between the
first and third quartiles (statistics.quantiles, n=4) as a share of that
median.  The benchmark's bounds in BENCHMARK.json were set from these
figures; each spread must stay under a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(res)
        print(json.dumps({"seed": seed, **res}), flush=True)

    print(f"workload {args.workload}: {len(results)} runs, "
          f"correct {all(r['correct'] for r in results)}, "
          f"failed {sum(r['failed'] for r in results)}/"
          f"{sum(r['attempted'] for r in results)} operations")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        print(f"  {name:40s} median {med:.6g} {results[0]['metrics'][name]['unit']:6s}"
              f" IQR/median {(q3 - q1) / med if med else 0.0:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
