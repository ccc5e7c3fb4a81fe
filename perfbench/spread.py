"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload service_overlap --seeds 1 2 3 4 5

For every end-to-end metric this prints the median over the runs and the
spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to the metric's ``bound`` from ``BENCHMARK.json``.  A metric is steady
when its spread stays below a third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError("seed %d failed:\n%s" % (seed, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in args.seeds:
        started = time.monotonic()
        result = run_once(args.workload, seed, args.seconds, 0)
        took = time.monotonic() - started
        if not result["correct"] or result["failed"]:
            print("seed %d: correct=%s failed=%d" % (
                seed, result["correct"], result["failed"]))
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d (%.0f s): %s" % (seed, took, json.dumps(
            {k: round(v["value"], 6) for k, v in result["metrics"].items()})),
            flush=True)
    steady = True
    for name, series in values.items():
        q1, mid, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else float("inf")
        ok = spread < bounds[name] / 3
        steady &= ok
        print("%-16s median %-12.6g spread %6.3f  bound %.2f  %s" % (
            name, mid, spread, bounds[name], "ok" if ok else "WIDE"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
