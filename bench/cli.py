"""Wall time of fresh ``filiform-ce`` processes, per verb and rank, and the cold solve.

    python3 bench/cli.py [--src DIR] [--parent DIR] [--runs K] [--out FILE]

Each entry ``<verb>.n<N>_ms`` is the median, over ``--runs`` fresh
``python -m filiform_ce.cli`` processes, of the wall time from spawn to exit
in milliseconds, for the seven verbs of the benchmark's ``cli`` workload at
n = 4, 6 and 8.  Inputs are drawn once with the ``--src`` checkout: the
member ``random_params(n, seed=3)``, its table for ``check``, a seeded
transform for ``act`` and the member's image under it for ``isomorphic``.
``cold_solve.n<N>_ms`` is the median time of ``solve_leibniz_constraints(n)``
for n = 4..9, called in turn in a fresh process right after ``import
filiform_ce`` (``cold_solve.import_ms``).  With ``--parent`` every process
runs on both checkouts back to back, the side that goes first alternating,
and the result holds ``before`` (the parent) and ``after`` (``--src``).
Each checkout is byte-compiled (``compileall``) before any process is
timed, so no side pays for compiling its modules, whatever
``PYTHONDONTWRITEBYTECODE`` says.  ``--out`` merges the result into that
JSON file, keeping the entries and the ``unit`` note of ``bench/run.py``
there (``run.merge_into``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

from run import ROOT, machine, merge_into, package_dir

VERBS = ("build", "check", "act", "classify", "isomorphic", "representatives", "derive-constraints")
RANKS = (4, 6, 8)
SOLVE_RANKS = range(4, 10)

COLD_SOLVE = """
import json, time
t0 = time.perf_counter()
import filiform_ce
out = {"import_ms": 1e3 * (time.perf_counter() - t0)}
for n in %r:
    t = time.perf_counter()
    filiform_ce.solve_leibniz_constraints(n)
    out[f"n{n}_ms"] = 1e3 * (time.perf_counter() - t)
print(json.dumps(out))
""" % (tuple(SOLVE_RANKS),)


def write_inputs(tmp: pathlib.Path) -> dict:
    """(verb, n) -> (argv, input file or None), drawn with the imported package."""
    import filiform_ce as fc
    from filiform_ce import jsonio

    calls = {}
    for n in RANKS:
        p = fc.random_params(n, seed=3)
        t = fc.random_transform(n, seed=4, b=p.b)
        docs = {
            "build": jsonio.encode_params(p),
            "check": jsonio.encode_tensor(fc.build_table(p)),
            "act": {"params": jsonio.encode_params(p), "transform": jsonio.encode_transform(t)},
            "classify": jsonio.encode_params(p),
            "isomorphic": {"first": jsonio.encode_params(p), "second": jsonio.encode_params(fc.act_on_params(t, p))},
        }
        for verb in VERBS:
            if verb in docs:
                path = tmp / f"{verb}-{n}.json"
                path.write_text(json.dumps(docs[verb]))
                calls[verb, n] = ([verb, "--input", str(path)], path)
            else:
                calls[verb, n] = ([verb, "--n", str(n)], None)
    return calls


def spawn_ms(src: pathlib.Path, argv: list[str]) -> float:
    env = {**os.environ, "PYTHONPATH": str(src)}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL)
    return 1e3 * (time.perf_counter() - t0)


def cold_solve(src: pathlib.Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", COLD_SOLVE], env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def measure(sources: dict, calls: dict, runs: int) -> dict:
    """Label -> entry -> median; each round runs every entry on every side in turn."""
    samples = {label: {} for label in sources}
    for r in range(runs):
        order = list(sources.items())[:: 1 if r % 2 == 0 else -1]
        for (verb, n), (argv, _) in calls.items():
            for label, src in order:
                ms = spawn_ms(src, ["-m", "filiform_ce.cli", *argv])
                samples[label].setdefault(f"{verb}.n{n}_ms", []).append(ms)
        for label, src in order:
            for key, ms in cold_solve(src).items():
                samples[label].setdefault(f"cold_solve.{key}", []).append(ms)
    return {
        label: {key: round(statistics.median(v), 2) for key, v in entries.items()}
        for label, entries in samples.items()
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT), help="checkout, or directory holding filiform_ce")
    ap.add_argument("--parent", help="second checkout, timed in turn with --src")
    ap.add_argument("--runs", type=int, default=7)
    ap.add_argument("--out", help="JSON file to merge the result into")
    args = ap.parse_args(argv)
    src = package_dir(args.src)
    sys.path.insert(0, str(src))
    sources = {"current": src}
    if args.parent:
        sources = {"before": package_dir(args.parent), "after": src}
    for path in sources.values():
        compileall.compile_dir(path, quiet=1)
    with tempfile.TemporaryDirectory() as tmp:
        calls = write_inputs(pathlib.Path(tmp))
        figures = measure(sources, calls, args.runs)
    result = {
        "machine": machine(),
        "unit": f"_ms: milliseconds, median over {args.runs} fresh processes",
        **figures,
    }
    if args.out:
        merge_into(args.out, result)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
