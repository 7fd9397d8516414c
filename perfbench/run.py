"""Benchmark of finitetopo: run one workload and print its metrics.

    python3 perfbench/run.py --workload homology-ladder --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout.  The workload runs in a child
process (measure.py) that imports finitetopo from the checkout's src/
only, with every FINITETOPO_* environment variable unset.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics; with --trace 0 the end-to-end metrics, with --trace 1 the
per-layer ones.  Diagnostics go to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("homology-ladder", "certify-stream", "mapper-clouds")
DEFAULT_SEED = 20240601
CHILD_TIMEOUT_S = 170


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25, help="length of the timed part of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run instead")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "finitetopo", "__init__.py")):
        print(f"error: no finitetopo sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if not k.startswith("FINITETOPO_")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--root", ROOT,
    ]
    child = subprocess.Popen(command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"error: {args.workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        print(f"error: {args.workload} exited with code {child.returncode}", file=sys.stderr)
        return child.returncode if child.returncode > 0 else 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
