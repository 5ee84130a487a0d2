"""Run the benchmark on several seeds and print each end-to-end metric's
median and spread (distance between the first and third quartile, as a share
of the median), next to the bound BENCHMARK.json gives it.

    python3 perfbench/spread.py --workload orbit-q --seeds 1-10
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


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range like 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    values = {}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, cwd=ROOT)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"{name}: median {med:.6g}, spread {spread:.4f}, bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
