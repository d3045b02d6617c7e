"""Spread report: run workloads over several seeds and summarise every metric.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload batch_10k --seeds 1-10
    python3 perfbench/spread.py --workload pipeline_1m --workload batch_10k --seeds 1-5 --trace 1

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time, and
prints for each metric the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the inter-quartile range as a share of the median.  For
end-to-end metrics it also shows the bound from ``BENCHMARK.json`` and
flags a spread above a third of it.  The host record of every run (load
averages and steal share) is summarised beside the metrics.  The whole
report is also written to ``perfbench/out/spread-<time>.json``.  Exits 1
when any run failed its correctness checks.
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


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {"correct": False}
    host = next((json.loads(l.split(":", 1)[1]) for l in lines if l.startswith("  host:")), {})
    return {"seed": seed, "exit": done.returncode, "wall_s": time.perf_counter() - start,
            "result": result, "host": host, "report": lines[:-1], "stderr": done.stderr[-2000:]}


def summarise(values):
    values = sorted(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    all_correct = True
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, seconds, args.trace)
            runs.append(run)
            ok = run["result"].get("correct") and run["exit"] == 0
            all_correct &= bool(ok)
            print(f"{workload} seed={seed} exit={run['exit']} correct={ok} "
                  f"wall={run['wall_s']:.1f}s load={run['host'].get('loadavg_start')}",
                  flush=True)
            if not ok:
                print(run["stderr"], file=sys.stderr)
        metrics = {}
        names = runs[0]["result"].get("metrics", {})
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs
                      if name in r["result"].get("metrics", {})]
            metrics[name] = summarise(values)
            metrics[name]["unit"] = names[name]["unit"]
        steal = [r["host"].get("steal_share") or 0.0 for r in runs]
        report["workloads"][workload] = {"metrics": metrics, "runs": runs,
                                         "max_steal_share": max(steal)}
        print(f"\n{workload}: {len(runs)} runs, max steal share {max(steal):.4f}")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}  bound")
        for name, s in metrics.items():
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None:
                flag = f"  {bound:.2f}" + ("  > bound/3" if s["iqr_share"] > bound / 3 else "")
            print(f"  {name:32s} {s['median']:12.5f} {s['q1']:12.5f} {s['q3']:12.5f} "
                  f"{s['iqr_share']:8.4f}{flag}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nreport written to {os.path.relpath(path, ROOT)}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
