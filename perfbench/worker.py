"""Run one workload in this fresh interpreter and print its numbers.

Started by run.py with PYTHONPATH set to the checkout's src/.  Runs one
untimed warm-up, then whole rounds of operations, one at a time (closed
loop, one client), until --seconds have passed and the workload's
minimum operation count is reached.  Only calls into the program are
timed; input generation and checks are not.  Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def nearest_rank(values: list[float], pct: float) -> float:
    """Percentile by nearest rank: at least (100 - pct)% of the values
    lie at or above it, and len(values) * (100 - pct) / 100 strictly
    beyond it when that is whole."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def run(workload, seconds: float, tracer) -> dict:
    latencies: list[float] = []
    failed = 0
    problems: list[str] = []
    clock = time.perf_counter
    for inp in workload.round()[:workload.warmup_ops]:
        workload.op(inp)
    start = clock()
    while True:
        for inp in workload.round():
            if tracer is not None:
                tracer.begin_op()
            t0 = clock()
            try:
                out = workload.op(inp)
                error = None
            except Exception:  # a failed operation, reported below
                out, error = None, traceback.format_exc()
            latencies.append(clock() - t0)
            if tracer is not None:
                tracer.end_op()
                if workload.last_trace is not None:
                    tracer.merge(workload.last_trace)
            if error is not None or workload.failed(inp, out):
                failed += 1
                if failed == 1:
                    print("first failed operation: %s"
                          % (error or repr(inp)[:300]),
                          file=sys.stderr)
                continue
            problems.extend(workload.check(inp, out))
        if clock() - start >= seconds and len(latencies) >= workload.min_ops:
            break
    return {"latencies": latencies, "failed": failed, "problems": problems}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import fukaya_flow
    if not os.path.abspath(fukaya_flow.__file__).startswith(SRC + os.sep):
        print("fukaya_flow was imported from %s, not from %s"
              % (fukaya_flow.__file__, SRC), file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Cli
    from tracer import Tracer

    trace = bool(args.trace)
    if args.workload == "cli":
        workload = Cli(args.seed, ROOT, dict(os.environ), trace)
    else:
        workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if trace:
        tracer = Tracer()
        if args.workload != "cli":
            tracer.install()

    result = run(workload, args.seconds, tracer)
    lat = result["latencies"]
    for line in result["problems"][:5]:
        print("check failed: %s" % line, file=sys.stderr)
    who = (resource.RUSAGE_CHILDREN if args.workload == "cli"
           else resource.RUSAGE_SELF)
    completed = len(lat) - result["failed"]
    timing = {
        "ops_per_s": (completed / sum(lat), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000.0 * nearest_rank(lat, workload.tail), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    if trace:
        metrics = tracer.report()
        print("traced %s: %d ops, ops_per_s %.4g, op_p50_ms %.4g"
              % (args.workload, len(lat), timing["ops_per_s"][0],
                 timing["op_p50_ms"][0]), file=sys.stderr)
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in timing.items()}
    print(json.dumps({"correct": not result["problems"],
                      "attempted": len(lat), "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
