"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workloads dense_links,cli --seeds 1-10

For every workload and end-to-end metric this prints the median of the
runs and the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, the
figure BENCHMARK.json's bounds are judged against, and the share of
failed operations.  Each run's result line is appended to
perfbench/results/spread-<unix time>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", "spread-%d.jsonl" % time.time())
    with open(path, "a", encoding="utf-8") as log:
        for workload in args.workloads.split(","):
            values: dict[str, list[float]] = {}
            shares = set()
            start = time.time()
            seeds = seed_list(args.seeds)
            for seed in seeds:
                proc = subprocess.run(
                    bench["command"] + ["--workload", workload,
                                        "--seed", str(seed),
                                        "--seconds", str(args.seconds),
                                        "--trace", str(args.trace)],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                log.write(json.dumps(dict(result, workload=workload,
                                          seed=seed)) + "\n")
                log.flush()
                if not result["correct"]:
                    print("%s seed %d: correct is false" % (workload, seed))
                shares.add((result["failed"], result["attempted"]))
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            ratios = {f / a for f, a in shares}
            print("%s: %.0f s per run, failed share %s"
                  % (workload, (time.time() - start) / len(seeds),
                     " ".join("%.4f" % r for r in sorted(ratios))))
            for name, vals in values.items():
                med = statistics.median(vals)
                line = "  %-36s median %12.4f" % (name, med)
                if len(vals) >= 2 and med:
                    q1, _, q3 = statistics.quantiles(vals, n=4)
                    line += "  spread %.4f" % ((q3 - q1) / med)
                    if bounds.get(name):
                        line += "  bound %.2f" % bounds[name]
                print(line, flush=True)
    print("results in %s" % os.path.relpath(path, ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
