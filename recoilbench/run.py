"""recoilspec benchmark: one workload for a fixed time, in whole rounds.

    python3 recoilbench/run.py --workload lineshape --seed 1 --seconds 30 --trace 0

Each round is a fresh single-threaded Python process (worker.py), so the
propagator caches start cold as they do for a command-line user.  Rounds
are repeated while the next one should still end within --seconds; every
round attempts the same operations, so the share of failed operations is
the same in every run.

--trace 0 prints the end-to-end metrics: the medians over rounds of set-up
time and run time, and the largest peak resident memory of the first
PEAK_ROUNDS rounds.  A round's peak varies by a few MB from process to
process at the same inputs, with the allocator's state; the maximum is
taken over a fixed number of rounds so that it does not grow with the
number of rounds a faster program fits into --seconds.  A run always does
at least PEAK_ROUNDS rounds.  --trace 1 alternates untraced and
traced rounds; traced rounds wrap recoilspec's public functions in spans
and run under `python -X importtime`, and the run prints the per-layer
metrics plus the tracing overhead (traced minus untraced median run time).
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Progress and check problems go to stderr.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lineshape", "probe_states", "oracle")
DEADLINE_S = 170.0   # every run must end within 180 s
PEAK_ROUNDS = 3

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
# Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("bloch.self_s", "s"), ("bloch.propagator_builds", "count"),
    ("bloch.propagator_hit_ratio", "ratio"),
    ("recoil.self_s", "s"), ("recoil.coefficient_calls", "count"),
    ("recoil.drift_p_calls", "count"), ("recoil.quadrature_failures", "count"),
    ("doppler.self_s", "s"), ("doppler.coefficient_calls_per_shift", "count"),
    ("doppler.damping_solves_per_shift", "count"),
    ("phasespace.self_s", "s"), ("phasespace.fock_overlap_s", "s"),
    ("phasespace.overlap_calls.gaussian", "count"),
    ("phasespace.overlap_calls.cat", "count"),
    ("phasespace.overlap_calls.fock", "count"),
    ("metrology.self_s", "s"), ("metrology.overlaps_per_sensitivity", "count"),
    ("metrology.root_search_retries", "count"),
    ("stateopt.self_s", "s"), ("stateopt.objective_evals", "count"),
    ("stateopt.objective_failures", "count"),
    ("pdeoracle.self_s", "s"), ("pdeoracle.propagate_calls", "count"),
    ("pdeoracle.cells", "computed_cells"),
    ("cli.self_s", "s"),
    ("import.numpy_s", "s"), ("import.scipy_linalg_s", "s"),
    ("import.scipy_special_s", "s"), ("import.scipy_optimize_s", "s"),
    ("import.scipy_sparse_s", "s"), ("import.recoilspec_self_s", "s"),
    ("trace.overhead_s", "s"),
)


def run_round(workload, seed, traced, index, budget_s, expect):
    """Run one worker process and return its parsed result.  `expect` is
    None or the (digest, missed) pair of a round whose checks passed."""
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
           str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--round", str(index),
           *(["--expect", expect[0], "--expect-missed", str(expect[1])]
             if expect else [])]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    t0 = time.monotonic()
    proc = subprocess.run([*cmd, "--t0", repr(t0)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=budget_s)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"round {index} of {workload} exited "
                         f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    if traced:
        from tracer import import_metrics
        result["layers"].update(import_metrics(proc.stderr))
    return result


def layer_medians(rounds):
    """Median of each per-layer metric; warn if a count differs by round."""
    out = {}
    for name, unit in PER_LAYER[:-1]:
        values = [r["layers"][name] for r in rounds]
        if unit != "s" and len(set(values)) > 1:
            print(f"warning: {name} differs between rounds: {values}",
                  file=sys.stderr)
        out[name] = statistics.median(values)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "recoilspec" / "__init__.py").is_file():
        sys.exit(f"no recoilspec sources under {ROOT / 'src'}")
    sys.path.insert(0, str(HERE))

    start = time.monotonic()
    rounds = []
    checked = None   # (digest, missed) of the first round whose checks passed
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        budget = DEADLINE_S - (time.monotonic() - start)
        r = run_round(args.workload, args.seed, traced, len(rounds), budget,
                      checked)
        rounds.append(r)
        if checked is None and not r["problems"]:
            checked = (r["digest"], r["missed"])
        print(f"round {len(rounds) - 1}{' traced' if traced else ''}: "
              f"setup {r['setup_s']:.3f} s, run {r['run_s']:.3f} s, "
              f"rss {r['peak_rss_mb']:.1f} MB, failed {r['failed']}/"
              f"{r['attempted']} {r['failures']}", file=sys.stderr)
        for problem in r["problems"]:
            print(f"  check: {problem}", file=sys.stderr)
        # Start another round only if it should end within --seconds.
        elapsed = time.monotonic() - start
        if (elapsed * (len(rounds) + 1) / len(rounds) > args.seconds
                and len(rounds) >= (2 if args.trace else PEAK_ROUNDS)):
            break

    plain = [r for r in rounds if not r["traced"]]
    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        values = layer_medians(traced)
        values["trace.overhead_s"] = (
            statistics.median(r["run_s"] for r in traced)
            - statistics.median(r["run_s"] for r in plain))
        units = dict(PER_LAYER)
    else:
        values = {"setup_s": statistics.median(r["setup_s"] for r in plain),
                  "run_s": statistics.median(r["run_s"] for r in plain),
                  "peak_rss_mb": max(r["peak_rss_mb"]
                                     for r in plain[:PEAK_ROUNDS])}
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": not any(r["problems"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))


if __name__ == "__main__":
    main()
