"""Steadiness mode: run each workload repeatedly and summarise the spread.

    python3 recoilbench/steady.py --runs 10

Every workload of BENCHMARK.json runs --runs times, run i with seed i, for
the run length of BENCHMARK.json.  For every metric the summary gives the
number of samples, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median, next to a third of the bound from BENCHMARK.json; it also
gives the failed share of operations, which must be identical across runs.
The summary is printed as a table and written as JSON to
.recoilbench/steady-<workload>.json.  The exit code is 1 if a
check failed, the failed shares differ, or an end-to-end spread reaches a
third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        samples, shares, correct = {}, set(), True
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            shares.add(str(Fraction(result["failed"], result["attempted"])))
            for name, m in result["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                file=sys.stderr)
        summary = {"workload": workload, "seconds": seconds, "correct": correct,
                   "failed_shares": sorted(shares),
                   "metrics": {}}
        print(f"\n{workload}: correct={correct}, failed shares "
              f"{summary['failed_shares']}")
        print(f"{'metric':12s} {'n':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s} {'bound/3':>8s}")
        for name, values in samples.items():
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = bounds[name]
            summary["metrics"][name] = {"n": len(values), "median": med,
                                        "q1": q1, "q3": q3, "spread": spread,
                                        "values": values}
            flag = ""
            if spread >= bound / 3:
                flag, ok = "  WIDE", False
            print(f"{name:12s} {len(values):3d} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f} {bound / 3:8.4f}{flag}")
        ok &= correct and len(shares) == 1
        out = ROOT / ".recoilbench" / f"steady-{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(summary, indent=1) + "\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
