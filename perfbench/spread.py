"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 18] [--trace 0]

Runs ``run.py`` once per seed, one run at a time, from the current
directory, and prints for every metric the median and the distance between
the first and third quartile as a share of the median (the figure each
metric's bound in BENCHMARK.json is compared with).  ``--json FILE`` also
writes the per-seed values and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    ap.add_argument("--seconds", default="18")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", type=Path)
    args = ap.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True,
        )
        last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
        runs.append({"seed": seed, "exit": proc.returncode, **last})
        print(f"seed {seed}: exit {proc.returncode} correct {last.get('correct')} "
              f"attempted {last.get('attempted')} failed {last.get('failed')}", flush=True)
        for name, m in last.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        sp = measure.spread(vals) if len(vals) >= 2 and med else None
        summary[name] = {"median": med, "unit": units[name], "spread": sp}
        shown = "n/a" if sp is None else f"{sp:.4f}"
        print(f"{name:<58}{med:>14.6g} {units[name]:<6} spread {shown}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "runs": runs,
                                         "summary": summary}, indent=1))
    return 0 if all(r["exit"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
