"""Steadiness of the benchmark: run every workload several times, one
process after another, each run with its own seed, and print per metric
the median and the interquartile spread as a share of the median.

    python3 perfbench/steady.py                      # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads certify-stream
    python3 perfbench/steady.py --trace              # per-layer metrics too

Spreads are compared with the bounds in BENCHMARK.json: a spread above a
third of its bound is flagged, one above the bound fails.  setup_s is
flagged but never fails, since set-up time follows the seed's inputs.
The bounds in BENCHMARK.json were set from this command's output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--trace", action="store_true", help="also make traced runs and print per-layer medians")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    failures = 0
    for workload in args.workloads:
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        results = []
        for seed in seeds:
            results.append(run_once(workload, seed, args.seconds, 0))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()), file=sys.stderr, flush=True)
        print(f"\n{workload}: {args.runs} runs, seeds {seeds[0]}..{seeds[-1]}, {args.seconds} s each")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"  correct in every run: {all(r['correct'] for r in results)}; failed share per run: {shares}")
        print(f"  {'metric':22} {'unit':9} {'median':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            s = spread(values)
            flag = "" if s <= bound / 3 else ("  above a third of the bound" if s <= bound else "  ABOVE THE BOUND")
            if s > bound and name != "setup_s":
                failures += 1
            print(f"  {name:22} {results[0]['metrics'][name]['unit']:9} {statistics.median(values):12.4f} {s:8.3f} {bound:6.2f}{flag}")
        if not all(r["correct"] for r in results) or len(shares) > 1:
            failures += 1
        if args.trace:
            traced = [run_once(workload, seed, args.seconds, 1) for seed in seeds[:3]]
            print(f"  per-layer, median of {len(traced)} traced runs:")
            for name, entry in traced[0]["metrics"].items():
                values = [t["metrics"][name]["value"] for t in traced]
                print(f"    {name:36} {entry['unit']:6} {statistics.median(values):12.4f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
