"""One workload run in a fresh process; started by ``run.py``.

Prints ``READY <json>`` once the library is ready (the set-up sample), then
one JSON line with the raw measurements.  With ``--trace 1`` the timed loop
runs twice over the same inputs, first plain and then with every layer
wrapped, each for half the seconds, and the spans are written to
``<out>/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
from pathlib import Path

import setup_probe


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    print("READY " + json.dumps(setup_probe.setup()), flush=True)

    import measure
    import tracer as tr
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.out)
    # a traced run splits its seconds between the two passes, so it takes
    # no longer than a plain one
    seconds = args.seconds / 2 if args.trace else args.seconds
    result = {"machine": measure.machine(), "plain": workloads.measure(wl, seconds)}
    # the plain run's peak: the traced run below keeps its spans in memory
    who = resource.RUSAGE_CHILDREN if isinstance(wl, workloads.Cli) else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    if args.trace:
        tracer = tr.Tracer()
        restore = tr.install(tracer)
        wl.tracer = tracer
        traced = workloads.measure(wl, seconds, tracer)
        wl.tracer = None
        restore()
        result["traced"] = {k: v for k, v in traced.items() if k != "latencies"}
        result["layers"] = tr.layer_metrics(tracer, traced["attempted"])
        result["spans"] = len(tracer)
        if isinstance(wl, workloads.Cli):
            result["cli_import_s"] = sum(wl.import_s) / max(len(wl.import_s), 1)
        spans_file = args.out / f"trace-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.dump()))
    result["probe"] = workloads.probe(wl)
    try:
        result["extra_checks"] = wl.extra_checks()
    except Exception as exc:  # a check that crashes is a failed check
        result["extra_checks"] = {f"raised:{type(exc).__name__}": False}
    if isinstance(wl, workloads.Harness):
        result["check_error_rate"] = wl.check_error_rate()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
