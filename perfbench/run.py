"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing beyond byte-compiling
``src/``.  Workloads (all closed loops with one client):

* ``harness``          one ``verify_all(seed, trials=100)`` per operation;
* ``classify-stream``  ``classify(p)`` then ``isomorphic(p, q)``;
* ``tensor-route``     a ``canonicalize`` witness pushed through the tensor;
* ``cli``              one fresh ``python -m filiform_ce.cli <verb>`` process.

``BENCHMARK.json`` gates ``harness``, ``classify-stream`` and ``cli``;
``tensor-route`` runs the same way but is not in the gated set (its layers
are all exercised by ``harness``, and four workloads do not fit long enough
runs into the time the gated runs may take).

Set-up is timed in fresh processes, from interpreter start to a library with
the constraint systems of every rank solved: two probe processes plus the
worker that then runs the workload; the median is reported.  The timed
loop runs for ``--seconds`` of operation time, and every output is checked
outside the timed region.  Operation times (not set-up) are rescaled to the
host's nominal speed by reference work timed alongside the operations
(``calib.py``); the measured values are printed beside them.  ``--trace 1`` splits the seconds between a plain
and a traced pass over the same inputs and reports per-layer metrics instead
of the end-to-end ones.

Prints every metric with its unit, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, failure breakdown included, goes to ``.bench_out/``.  Exits 1 when
an output check fails and 2 when the checkout holds no library source.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
import measure

HERE = Path(__file__).resolve().parent
WORKLOADS = ("harness", "classify-stream", "tensor-route", "cli")
SETUP_PROBES = 2


def child_env(root: Path) -> dict:
    paths = [str(root / "src"), str(HERE)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    # one client on small matrices: BLAS threads would only add noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_ready(cmd: list[str], env: dict) -> tuple[subprocess.Popen, float, dict]:
    """Start a fresh interpreter and wait for its ``READY`` line.

    Returns the process, the seconds from spawn to ready, and the set-up rows.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if not line.startswith("READY "):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{cmd[1]} did not report ready (got {line!r})")
    return proc, ready, json.loads(line[len("READY "):])


def run_worker(args, root: Path, out: Path, env: dict) -> tuple[list[float], list[dict], dict]:
    samples, rows = [], []
    for _ in range(SETUP_PROBES):
        proc, ready, setup = start_ready([sys.executable, str(HERE / "setup_probe.py")], env)
        proc.communicate()
        samples.append(ready)
        rows.append(setup)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    proc, ready, setup = start_ready(cmd, env)
    stdout, _ = proc.communicate()
    samples.append(ready)
    rows.append(setup)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return samples, rows, json.loads(stdout.strip().splitlines()[-1])


def setup_rows(rows: list[dict]) -> dict[str, dict[str, float]]:
    """Median cold time and peak memory per set-up step over the fresh processes."""
    return {
        step: {k: statistics.median(r[step][k] for r in rows) for k in ("s", "rss_mb")}
        for step in rows[0]
    }


def summarize(args, samples, rows, res) -> dict:
    """End-to-end metrics; operation times are rescaled to nominal host speed (``calib``)."""
    plain = res["plain"]
    lat = plain["latencies"]
    failed = sum(plain["failures"].values())
    ok = plain["attempted"] - failed
    tail_v, tail_pct, count = measure.tail(lat)
    # the harness counts failed checks out of 32 per run instead
    error_rate = res.get("check_error_rate", failed / plain["attempted"])
    f = calib.factor(plain["reference"], plain["ref_s"])
    s = {
        "end_to_end": {
            "setup_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "ops_per_s": (ok / (plain["busy_s"] * f), "1/s"),
            "p50_ms": (statistics.median(lat) * f * 1e3, "ms"),
        },
        "speed_factor": f,
        "measured": {
            "ops_per_s": ok / plain["busy_s"],
            "p50_ms": statistics.median(lat) * 1e3,
        },
        # printed and recorded, but not gated: at p99.9 of thousands of
        # samples it moves with host interference far more than any bound allows
        "tail_ms": tail_v * f * 1e3,
        "error_rate": error_rate,
        "tail_percentile": tail_pct,
        "samples": count,
        "setup_samples_s": samples,
        "setup_rows": setup_rows(rows),
        "attempted": plain["attempted"],
        "failed": failed,
        "failures": plain["failures"],
    }
    if args.workload == "harness":
        s["harness_s"] = statistics.median(lat) * f
    return s


def layer_metrics(s, res) -> dict:
    m = {name: tuple(v) for name, v in res["layers"].items()}
    for step, row in s["setup_rows"].items():
        prefix = "setup.import" if step == "import" else f"family.solve_leibniz_constraints.{step}"
        m[f"{prefix}.cold_s"] = (row["s"], "s")
        m[f"{prefix}.peak_rss_mb"] = (row["rss_mb"], "MB")
    m["cli.import_s"] = (res.get("cli_import_s", 0.0), "s")
    plain, traced = res["plain"], res["traced"]
    # as measured: the traced pass runs no host speed reference
    per_plain = plain["busy_s"] / plain["attempted"]
    per_traced = traced["busy_s"] / traced["attempted"]
    m["trace.overhead_pct"] = (100.0 * (per_traced / per_plain - 1.0), "%")
    probe = res["probe"]
    m["probe.error_rate"] = (sum(probe["failures"].values()) / max(probe["attempted"], 1), "1")
    return m


def report(args, s, res, metrics) -> None:
    mach = res["machine"]
    print("machine: " + " ".join(f"{k}={v}" for k, v in mach.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    e2e, raw, sf = s["end_to_end"], s["measured"], s["speed_factor"]
    print(f"  operation times at nominal host speed (calib.py): measured time x {sf:.3f}")
    print(f"  {'setup_s':<14}{e2e['setup_s'][0]:>12.4f} s    median of {len(s['setup_samples_s'])} "
          "fresh processes, as measured")
    print(f"  {'peak_rss_mb':<14}{e2e['peak_rss_mb'][0]:>12.1f} MB   "
          + ("largest CLI child" if args.workload == "cli" else "workload process"))
    if "harness_s" in s:
        print(f"  {'harness_s':<14}{s['harness_s']:>12.4f} s    one verify_all(seed, trials=100)")
    print(f"  {'ops_per_s':<14}{e2e['ops_per_s'][0]:>12.4f} 1/s  checked correct, per timed second; "
          f"measured {raw['ops_per_s']:.4f}")
    print(f"  {'p50_ms':<14}{e2e['p50_ms'][0]:>12.4f} ms   {s['samples']} samples; "
          f"measured {raw['p50_ms']:.4f}")
    print(f"  {'tail_ms':<14}{s['tail_ms']:>12.4f} ms   p{s['tail_percentile']:.2f} of {s['samples']} samples")
    print(f"  {'error_rate':<14}{s['error_rate']:>12.4f}      failures {s['failures'] or 'none'}")
    probe = res["probe"]
    if probe["attempted"]:
        rate = sum(probe["failures"].values()) / probe["attempted"]
        print(f"  probe (members scaled by 10^k, k in [-30, 30], untimed): error_rate {rate:.4f} "
              f"of {probe['attempted']}, {probe['failures'] or 'no failures'}")
    print("  set-up, median over fresh processes:")
    for step, row in s["setup_rows"].items():
        print(f"    {step:<8}{row['s']:>9.4f} s {row['rss_mb']:>9.1f} MB peak after")
    if args.trace:
        traced = res["traced"]
        per_op = traced["busy_s"] / traced["attempted"]
        layers = {k[: -len(".self_s")]: v for k, (v, _) in metrics.items()
                  if k.count(".") == 1 and k.endswith(".self_s")}
        outside = per_op - sum(layers.values())
        shares = sorted(layers.items(), key=lambda kv: -kv[1])
        print(f"  self time per traced operation ({per_op * 1e3:.4f} ms): "
              + ", ".join(f"{k} {100 * v / per_op:.1f}%" for k, v in shares)
              + f", outside the library {100 * outside / per_op:.1f}%")
        if args.workload == "cli":
            start = outside - metrics["cli.import_s"][0]
            print(f"  cold family solve: {100 * layers['family'] / (per_op - start):.1f}% of the "
                  f"time outside interpreter start ({start * 1e3:.1f} ms per call)")
        print("  per layer, traced pass (per operation):")
        for name, (value, unit) in sorted(metrics.items()):
            print(f"    {name:<58}{value:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "filiform_ce" / "__init__.py").is_file():
        print("error: run from the root of a checkout with src/filiform_ce", file=sys.stderr)
        return 2
    # byte-compile first so no set-up sample pays for compilation
    compileall.compile_dir(root / "src", quiet=1)
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)

    samples, rows, res = run_worker(args, root, out, child_env(root))
    s = summarize(args, samples, rows, res)
    checks = dict(res["extra_checks"])
    attempted, failed = s["attempted"], s["failed"]
    if args.trace:
        traced = res["traced"]
        attempted += traced["attempted"]
        failed += sum(traced["failures"].values())
        metrics = layer_metrics(s, res)
    else:
        metrics = s["end_to_end"]
    correct = failed == 0 and all(checks.values())

    report(args, s, res, metrics)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": res["machine"], "correct": correct,
        "checks": checks, "summary": s, "probe": res["probe"],
        "traced": res.get("traced"), "metrics": metrics,
        "latencies": res["plain"]["latencies"],
        "ref_s": res["plain"]["ref_s"],
    }
    (out / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    if not correct:
        print(f"output checks failed: failures {s['failures']}, checks {checks}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
