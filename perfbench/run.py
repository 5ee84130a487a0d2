"""The psilab benchmark.

    python3 perfbench/run.py --workload orbit-q --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  Every run starts fresh interpreters
(perfbench/worker.py), one per measured process, and ends them all.

--trace 0 prints the end-to-end metrics: the workload runs as a closed loop
with one caller, running as many rounds as fit in --seconds (at least one);
setup is timed apart.
--trace 1 prints the per-layer metrics: one untraced round and two traced
rounds of round 0's inputs, each in its own process; exact counters must
repeat between the two traced rounds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it name every metric with
its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES = 12
DEADLINE_S = 170  # every worker must have ended this long after the run began
STARTED = time.perf_counter()

sys.path.insert(0, HERE)
from tracer import EXACT_COUNTERS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "slowest_request_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "verdict_pass_ratio": "ratio",
}


def unit_of(metric: str) -> str:
    if metric in END_TO_END:
        return END_TO_END[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "fields.max_coeff_bits":
        return "bits"
    return "count"


def worker(mode, args, workdir, tag, extra=()):
    """Run one worker process to completion and return its JSON result."""
    out = os.path.join(workdir, f"{tag}.json")
    cmd = [
        sys.executable, WORKER, "--mode", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--workdir", workdir, "--out", out, *extra,
    ]
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - STARTED))
    subprocess.run(cmd, check=True, timeout=timeout, stdout=subprocess.DEVNULL)
    with open(out) as fh:
        return json.load(fh)


def tally(results):
    attempted = sum(len(r["times"]) for res in results for r in res["rounds"])
    failures = [f for res in results for r in res["rounds"] for f in r["failures"]]
    for f in failures:
        print(f"FAILED {f['request']}: {'; '.join(f['problems'])}")
    return attempted, len(failures)


def setup_probe(args, workdir, k):
    # The probe reports when it was ready on the system-wide monotonic clock
    # (CLOCK_MONOTONIC on Linux): timing the wait for its exit would add the
    # up-to-50 ms polling step of a subprocess wait with a timeout.
    start = time.monotonic()
    return worker("setup", args, workdir, f"setup{k}")["ready"] - start


def end_to_end(args, workdir):
    # Half the set-up probes run before the measurement and half after it, so
    # that one slow spell of the host cannot cover them all.
    setup = [setup_probe(args, workdir, k) for k in range(SETUP_PROBES // 2)]
    res = worker("measure", args, workdir, "measure")
    setup += [setup_probe(args, workdir, k) for k in range(SETUP_PROBES // 2, SETUP_PROBES)]
    attempted, failed = tally([res])
    rounds = res["rounds"]
    print(f"{len(rounds)} rounds, {attempted} requests, {SETUP_PROBES} setup probes")
    print("setup probes (s): " + " ".join(f"{t:.4f}" for t in setup))
    for k, r in enumerate(rounds):
        print(f"round {k} request times (s): " + " ".join(f"{t:.4f}" for t in r["times"]))
    print(f"verdict_fail_ratio {failed / attempted} ratio")
    # wall_s is a mean over rounds, not a median: on a shared host one round can
    # run a third slower than the next, and over ten seeds the median of three
    # to five rounds spread up to twice as much as their mean.  setup_s is the
    # minimum of its probes: over ten seeds their median spread up to 0.29.
    metrics = {
        "wall_s": statistics.fmean(sum(r["times"]) for r in rounds),
        "slowest_request_s": max(t for r in rounds for t in r["times"]),
        "setup_s": min(setup),
        "peak_rss_mib": res["peak_rss_kib"] / 1024,
        "verdict_pass_ratio": (attempted - failed) / attempted,
    }
    return attempted, failed, metrics


def per_layer(args, workdir):
    spans = os.path.join(WORK, f"spans-{args.workload}.tsv.gz")
    plain = worker("measure", args, workdir, "untraced", ["--seconds", "0"])
    first = worker("trace", args, workdir, "trace1", ["--spans", spans])
    second = worker("trace", args, workdir, "trace2")
    attempted, failed = tally([plain, first, second])
    layers = first["layers"]
    dropped = [c for c in EXACT_COUNTERS if layers[c] != second["layers"][c]]
    for c in dropped:
        print(f"not exact: {c} read {layers[c]} then {second['layers'][c]}; dropped from the exact set")
    print(f"exact counters repeated: {len(EXACT_COUNTERS) - len(dropped)} of {len(EXACT_COUNTERS)}")
    for name in first["absent"]:
        print(f"absent: {name} (not traced)")
    print(f"spans: {first['spans']} written to {os.path.relpath(spans, ROOT)}")
    metrics = dict(layers)
    metrics["trace.overhead_s"] = sum(first["rounds"][0]["times"]) - sum(plain["rounds"][0]["times"])
    metrics["trace.spans"] = first["spans"]
    metrics["trace.counters_not_repeated"] = len(dropped)
    return attempted, failed, {m: metrics[m] for m in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "psilab", "cli.py")):
        print(f"no psilab source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 1
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        measure = per_layer if args.trace else end_to_end
        attempted, failed, metrics = measure(args, workdir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name} {value} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m)} for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
