"""Per-call timings of the library's layers, and one end-to-end run.

Times, at n = 4 and n = 8 on a seeded family member and a seeded
transform: the tensor kernels (``change_basis``, ``leibniz_residual``,
``bracket``, ``lower_central_series``), the finiteness check
``require_finite`` (on a parameter tuple and on a structure tensor), the
sampler ``random_params`` (one generator shared across calls), and
``build_table``, ``adapted_matrix``, ``act_on_params``, ``read_params``,
the group law ``compose`` and ``inverse_transform``, ``canonicalize``,
``classify``, ``orbit_invariant`` and ``isomorphic``.  ``isomorphic``
compares two seeded members (at n = 4 and 8 both U_1 with different
``lam``, so it answers False before building a witness);
``isomorphic_image`` compares a member with its image under the seeded
transform, so it also builds and checks the witness.  Each figure is the
median over ``REPEATS`` rounds of the mean time per call in microseconds.
The end-to-end entry ``verify_all.seed1_trials100_s`` is the median of
``E2E_RUNS`` runs of ``verify_all(seed=1, trials=100)``, in seconds.

    python3 bench/run.py [--src DIR] [--label NAME] [--out FILE]

``--src`` selects the checkout whose ``filiform_ce`` is timed (default:
this one), so two checkouts can be timed on the same machine; it may be
the checkout itself or the directory holding ``filiform_ce``.  With
``--out`` the result is stored under ``--label`` in that JSON file,
beside the entries already there.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import timeit

ROOT = pathlib.Path(__file__).resolve().parent.parent
REPEATS = 7
E2E_RUNS = 3


def measure() -> dict:
    import numpy as np

    import filiform_ce as fc
    from filiform_ce.action import random_transform
    from filiform_ce.tolerance import require_finite
    from filiform_ce.verify import verify_all

    out = {}
    for n in (4, 8):
        rng = np.random.default_rng(1)
        p = fc.random_params(n, seed=1)
        q = fc.random_params(n, seed=2)
        t = fc.build_table(p)
        tr = random_transform(n, b=p.b, rng=np.random.default_rng(2))
        image = fc.act_on_params(tr, p)
        tr2 = random_transform(n, b=image.b, rng=np.random.default_rng(3))
        g = fc.adapted_matrix(tr, p)
        x, y = g[:, 0], g[:, 1]
        values = p.as_tuple()
        calls = {
            "change_basis": lambda: fc.change_basis(t, g),
            "leibniz_residual": lambda: fc.leibniz_residual(t),
            "bracket": lambda: fc.bracket(t, x, y),
            "lower_central_series": lambda: fc.lower_central_series(t),
            "require_finite_params": lambda: require_finite(values, "parameters"),
            "require_finite_tensor": lambda: require_finite(t.gamma, "structure constants"),
            "random_params": lambda: fc.random_params(n, rng=rng),
            "build_table": lambda: fc.build_table(p),
            "adapted_matrix": lambda: fc.adapted_matrix(tr, p),
            "act_on_params": lambda: fc.act_on_params(tr, p),
            "read_params": lambda: fc.read_params(t),
            "compose": lambda: fc.compose(tr, tr2, p),
            "inverse_transform": lambda: fc.inverse_transform(tr, p),
            "canonicalize": lambda: fc.canonicalize(p),
            "classify": lambda: fc.classify(p),
            "orbit_invariant": lambda: fc.orbit_invariant(p),
            "isomorphic": lambda: fc.isomorphic(p, q),
            "isomorphic_image": lambda: fc.isomorphic(p, image),
        }
        for name, fn in calls.items():
            number, _ = timeit.Timer(fn).autorange()
            rounds = timeit.Timer(fn).repeat(repeat=REPEATS, number=number)
            out[f"{name}.n{n}_us"] = round(statistics.median(rounds) / number * 1e6, 3)
    runs = timeit.Timer(lambda: verify_all(seed=1, trials=100)).repeat(repeat=E2E_RUNS, number=1)
    out["verify_all.seed1_trials100_s"] = round(statistics.median(runs), 3)
    return out


def machine() -> dict:
    import numpy as np

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "arch": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT), help="checkout, or directory holding filiform_ce")
    ap.add_argument("--label", default="current")
    ap.add_argument("--out", help="JSON file to merge the result into")
    args = ap.parse_args(argv)
    src = pathlib.Path(args.src)
    if (src / "src" / "filiform_ce").is_dir():
        src = src / "src"
    sys.path.insert(0, str(src))
    result = {
        "machine": machine(),
        "unit": (
            f"_us: microseconds per call, median over {REPEATS} rounds; "
            f"_s: seconds per run, median over {E2E_RUNS} runs"
        ),
        args.label: measure(),
    }
    if args.out:
        path = pathlib.Path(args.out)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged.update(result)
        path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
