"""One workload process: a single caller, in a fresh interpreter, sending CLI
requests in process through `psilab.cli.main([... "--json"])`, each request
only after the previous one has returned.

Modes:
  setup    import psilab, generate round 0's inputs and write the time.monotonic()
           reading at which it was ready
  measure  run as many rounds as fit in --seconds (at least one)
  trace    run one round with the layer tracer installed

Writes its result as JSON to --out.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

from workloads import check_report, round_requests

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_psilab():
    """Import the CLI from the checkout's own source tree, never from elsewhere."""
    sys.path.insert(0, SRC)
    import psilab.cli

    if not os.path.abspath(psilab.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"psilab imported from {psilab.cli.__file__}, not {SRC}")
    return psilab.cli


def run_request(cli, argv, inst):
    """Time one request; return (seconds, problems).  The gate reads the JSON
    report; an exception or a usage exit counts as a failure."""
    buf = io.StringIO()
    start = time.perf_counter()
    # cli.main is looked up per call, so a traced run calls the wrapper
    try:
        with contextlib.redirect_stdout(buf):
            cli.main(argv)
        seconds = time.perf_counter() - start
        problems = check_report(inst, json.loads(buf.getvalue()))
    except (Exception, SystemExit) as exc:  # counted, never retried
        seconds = time.perf_counter() - start
        problems = [f"{type(exc).__name__}: {exc}"]
    return seconds, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", help="gzipped TSV of the traced spans (trace mode)")
    args = ap.parse_args(argv)

    cli_module = import_psilab()
    if args.mode == "setup":
        round_requests(args.workload, args.seed, 0, args.workdir)
        with open(args.out, "w") as fh:
            json.dump({"ready": time.monotonic()}, fh)
        return 0

    tracer = None
    if args.mode == "trace":  # untraced processes never load the tracer
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    rounds = []
    begin = time.perf_counter()
    while True:
        requests = round_requests(args.workload, args.seed, len(rounds), args.workdir)
        times, failures = [], []
        for argv_, inst in requests:
            seconds, problems = run_request(cli_module, argv_, inst)
            times.append(seconds)
            if problems:
                failures.append({"request": " ".join(argv_), "problems": problems})
        rounds.append({"times": times, "failures": failures})
        # start another round only if one more of average length still fits
        elapsed = time.perf_counter() - begin
        if args.mode != "measure" or elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    result = {
        "rounds": rounds,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.start)
        result["layers"] = layer_metrics(tracer.summary())
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
