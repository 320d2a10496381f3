"""One round of one workload, in a fresh single-threaded Python process.

Started by run.py, never imported.  The round imports recoilspec from the
checkout's src/ directory, builds the workload's inputs, runs every
operation once under one wall-clock timer, reads the peak resident memory,
then checks the outputs.  Rounds of one run repeat the same operations on
the same inputs, so their outputs are bit for bit the same: a round given
the digest of a round whose checks passed (--expect), and the number of
operations that round's checks found off through a known fault
(--expect-missed), only compares digests and runs the checks again if they
differ.  The result is one JSON line on stdout: setup_s (from the parent's
spawn time, passed as --t0, to the end of the input build), run_s,
peak_rss_mb, the operations attempted and failed (raised, or missed their
reference through a known fault), the output digest and any check
problems; with --trace 1 also the per-layer metrics of the round.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--expect", default=None)
    parser.add_argument("--expect-missed", type=int, default=0)
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import recoilspec as rs
    import recoilspec.cli  # noqa: F401  (the CLI is part of every set-up)
    if Path(rs.__file__).resolve().parent != ROOT / "src" / "recoilspec":
        sys.exit(f"imported recoilspec from {rs.__file__}, not {ROOT / 'src'}")
    from workloads import WORKLOADS

    build, check = WORKLOADS[args.workload]
    workdir = ROOT / ".recoilbench"
    tmpdir = workdir / "tmp" / str(os.getpid())
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = build(rs, args.seed, str(tmpdir))
        setup_s = time.monotonic() - args.t0

        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install(rs)

        results, failures = [], []
        start = time.perf_counter()
        for label, op in ops:
            try:
                results.append((label, op()))
            except Exception as exc:
                failures.append((label, type(exc).__name__))
        run_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        digest = hashlib.sha256(
            repr((results, failures)).encode()).hexdigest()
        if digest == args.expect:
            problems, missed = [], args.expect_missed
        else:
            problems, missed = check(results, failures)
            missed = len(missed)
        kinds = {kind for _, kind in failures}
        out = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": peak_rss_mb,
               "attempted": len(ops), "failed": len(failures) + missed,
               "missed": missed,
               "failures": sorted(kinds | ({"outside tolerance"} if missed
                                           else set())),
               "digest": digest, "problems": problems}
        if tracer is not None:
            trace_dir = workdir / "trace"
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(trace_dir / f"{args.workload}-seed{args.seed}"
                                           f"-round{args.round}.jsonl")
            out["layers"] = tracer.layer_metrics(
                rs.bloch._cached_propagator.cache_info())
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
