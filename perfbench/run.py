"""Benchmark of fukaya-flow: four workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload dense_links --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's src/ (never an installed copy), in fresh interpreters:

- set-up: SETUP_PROBES fresh interpreters each import the modules the
  workload uses and load the fixture catalog (for cli: import
  fukaya_flow.cli); setup_s is the median wall time of one such
  process, after one untimed probe that fills the bytecode cache;
- the operations run in one more fresh interpreter (worker.py).

The benchmark pins itself, and so every process it starts, to one CPU.
numpy's OpenBLAS starts a thread per CPU when it is imported; on a
2-core machine, start-up then depends on what the other core is doing,
and unpinned set-up and CLI times moved by up to 2x between runs.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics, which are the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1.  See perfbench/README.md.
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
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from workloads import MODULES  # noqa: E402  (stdlib only)

SETUP_PROBES = 7
WORKER_TIMEOUT_S = 150


def probe_code(workload: str) -> str:
    if workload == "cli":
        return "import fukaya_flow.cli"
    mods = ", ".join("fukaya_flow." + m for m in MODULES[workload])
    return "import %s; fukaya_flow.links.load_catalog()" % mods


def measure_setup(workload: str, env: dict) -> float:
    argv = [sys.executable, "-c", probe_code(workload)]
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        # with pipes the timeout is served by select() on them; a bare
        # wait(timeout) polls in steps of up to 50 ms
        subprocess.run(argv, cwd=ROOT, env=env, check=True, timeout=60,
                       capture_output=True)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(SRC, "fukaya_flow", "__init__.py")):
        print("perfbench: no program at %s; run from the root of a "
              "checkout" % os.path.join(SRC, "fukaya_flow"), file=sys.stderr)
        return 2
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("FUKAYA_FLOW_FIXTURES", None)     # always the packaged catalog

    try:
        setup_s = None if args.trace else measure_setup(args.workload, env)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        print("perfbench: worker exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
