"""Per-call timings of the library's layers, and one end-to-end run.

Times, at n = 4 and n = 8 on a seeded family member and a seeded
transform: the tensor kernels (``change_basis``, ``leibniz_residual``,
``bracket``, ``lower_central_series``), the finiteness checks
(``require_finite`` on a parameter tuple, ``StructureTensor``'s guard on
a structure tensor), the
sampler ``random_params`` (one generator shared across calls), the
uncached constraint solve ``solve_leibniz_constraints.__wrapped__``, and
``build_table``, ``adapted_matrix``, ``act_on_params``, ``read_params``,
the group law ``compose`` and ``inverse_transform``, ``canonicalize``,
``classify``, ``orbit_invariant`` and ``isomorphic``, and the validating
constructors of the value objects (``extension_params``,
``adapted_transform`` and ``structure_tensor``, each rebuilding the seeded
object from its own fields).  ``isomorphic``
compares two seeded members (at n = 4 and 8 both U_1 with different
``lam``, so it answers False before building a witness);
``isomorphic_image`` compares a member with its image under the seeded
transform, so it also builds and checks the witness.
``canonicalize_cells`` canonicalizes one seeded member of every cell of
the rank in turn (9 cells at n = 4, 17 at n = 8), so one call is the whole
sweep.  ``oracle`` is the harness's tensor-route oracle,
``read_params(change_basis(build_table(p), adapted_matrix(t, p)))``, on a
chunk of 16 seeded member/transform pairs in one stacked pass
(``verify._oracle_pass``, or ``verify._adapted_pass`` in a checkout from
before it); its figure is per member.  Each figure is the
median over ``REPEATS`` rounds of the mean time per call in microseconds,
with one BLAS thread.
The end-to-end entry ``verify_all.seed1_trials100_s`` is the median of
``E2E_RUNS`` runs of ``verify_all(seed=1, trials=100)``, in seconds.

    python3 bench/run.py [--src DIR] [--parent DIR] [--label NAME] [--out FILE]

``--src`` selects the checkout whose ``filiform_ce`` is timed (default:
this one); it may be the checkout itself or the directory holding
``filiform_ce``.  ``--parent`` loads a second checkout into the same
process under another package name and times every entry on both, round
by round, the side that goes first alternating, so drift of the host's
speed falls on both sides alike; the result then holds ``before`` (the
parent) and ``after`` (``--src``) in place of ``--label``.  With ``--out``
the result is merged into that JSON file by :func:`merge_into`, beside the
entries already there, so this tool and ``bench/cli.py`` can share a file.
"""

from __future__ import annotations

import argparse
import importlib.util
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
#: members per call of the entries timed per member
MEMBERS = {"oracle": 16}


def package_dir(checkout: str) -> pathlib.Path:
    """The directory holding ``filiform_ce`` in a checkout (or the directory itself)."""
    src = pathlib.Path(checkout)
    return src / "src" if (src / "src" / "filiform_ce").is_dir() else src


def load_package(src: pathlib.Path, name: str):
    """Import ``src/filiform_ce`` as package ``name``; its imports are relative."""
    init = src / "filiform_ce" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _sub(fc, name: str):
    return importlib.import_module(f"{fc.__name__}.{name}")


def calls(fc) -> dict:
    """Entry name -> zero-argument call on package ``fc``."""
    out = {}
    for n in (4, 8):
        out.update((f"{name}.n{n}_us", fn) for name, fn in _rank_calls(fc, n).items())
    verify_all = _sub(fc, "verify").verify_all
    out["verify_all.seed1_trials100_s"] = lambda: verify_all(seed=1, trials=100)
    return out


def _rank_calls(fc, n: int) -> dict:
    import numpy as np

    AdaptedTransform = _sub(fc, "action").AdaptedTransform
    tensor = _sub(fc, "tensor")
    StructureTensor = tensor.StructureTensor
    random_transform = _sub(fc, "action").random_transform
    require_finite = _sub(fc, "tolerance").require_finite
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
    cells = [fc.random_params(n, spec.name, seed=1) for spec in _sub(fc, "subsets").SUBSETS[n]]
    return {
        "oracle": _oracle_chunk(fc, n),
        "change_basis": lambda: fc.change_basis(t, g),
        "leibniz_residual": lambda: fc.leibniz_residual(t),
        "bracket": lambda: fc.bracket(t, x, y),
        "lower_central_series": lambda: fc.lower_central_series(t),
        "extension_params": lambda: fc.ExtensionParams(n, p.b00, p.b01, p.b11, p.b_even, p.b),
        "adapted_transform": lambda: AdaptedTransform(n, tr.A0, tr.A1, tr.B),
        "structure_tensor": lambda: StructureTensor(t.gamma),
        "require_finite_params": lambda: require_finite(values, "parameters"),
        "require_finite_tensor": lambda: tensor._refuse(StructureTensor._guards(t.gamma)),
        "random_params": lambda: fc.random_params(n, rng=rng),
        "solve_leibniz_constraints": lambda: fc.solve_leibniz_constraints.__wrapped__(n),
        "build_table": lambda: fc.build_table(p),
        "adapted_matrix": lambda: fc.adapted_matrix(tr, p),
        "act_on_params": lambda: fc.act_on_params(tr, p),
        "read_params": lambda: fc.read_params(t),
        "compose": lambda: fc.compose(tr, tr2, p),
        "inverse_transform": lambda: fc.inverse_transform(tr, p),
        "canonicalize": lambda: fc.canonicalize(p),
        "canonicalize_cells": lambda: [fc.canonicalize(member) for member in cells],
        "classify": lambda: fc.classify(p),
        "orbit_invariant": lambda: fc.orbit_invariant(p),
        "isomorphic": lambda: fc.isomorphic(p, q),
        "isomorphic_image": lambda: fc.isomorphic(p, image),
    }


def _oracle_chunk(fc, n: int):
    """One chunk of ``MEMBERS["oracle"]`` seeded (p, t) pairs through the tensor-route oracle."""
    import numpy as np

    verify = _sub(fc, "verify")
    rng = np.random.default_rng(4)
    ps = [fc.random_params(n, rng=rng) for _ in range(MEMBERS["oracle"])]
    ts = [_sub(fc, "action").random_transform(n, b=p.b, rng=rng) for p in ps]
    if hasattr(verify, "_oracle_pass"):
        steps = [[(t, p)] for p, t in zip(ps, ts)]
        return lambda: verify._oracle_pass(ps, steps, read=True)
    if hasattr(verify, "_adapted_pass"):  # a checkout from before the one stacked pass
        return lambda: verify._adapted_pass(ps, ts, read=True)
    raise AttributeError(f"{verify.__name__} has no stacked tensor-route pass to time")


def measure(packages: dict) -> dict:
    """Label -> entry -> figure; each round times every package in turn."""
    tables = {label: calls(fc) for label, fc in packages.items()}
    first = next(iter(tables.values()))
    samples = {label: {key: [] for key in first} for label in tables}
    for key, fn in first.items():
        e2e = key.endswith("_s")
        number = 1 if e2e else timeit.Timer(fn).autorange()[0]
        for r in range(E2E_RUNS if e2e else REPEATS):
            for label, table in list(tables.items())[:: 1 if r % 2 == 0 else -1]:
                seconds = timeit.Timer(table[key]).timeit(number) / number / MEMBERS.get(key.split(".")[0], 1)
                samples[label][key].append(seconds if e2e else seconds * 1e6)
    return {
        label: {key: round(statistics.median(runs), 3) for key, runs in entries.items()}
        for label, entries in samples.items()
    }


def merge_into(path: str, result: dict) -> None:
    """Merge ``result`` into the JSON file at ``path``.

    A table there (``before``, ``after``, a label, ``machine``) keeps its
    entries beside the new ones, and a ``unit`` note not yet there is
    appended to the old one, so two tools' figures and notes share one file.
    """
    out = pathlib.Path(path)
    merged = json.loads(out.read_text()) if out.exists() else {}
    for key, value in result.items():
        old = merged.get(key)
        if isinstance(old, dict) and isinstance(value, dict):
            value = {**old, **value}
        elif key == "unit" and isinstance(old, str):
            value = old if value in old else f"{old}; {value}"
        merged[key] = value
    out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")


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
    ap.add_argument("--parent", help="second checkout, timed in turn with --src")
    ap.add_argument("--label", default="current")
    ap.add_argument("--out", help="JSON file to merge the result into")
    args = ap.parse_args(argv)
    # one caller on small matrices, as perfbench runs its workers: a second
    # BLAS thread only adds noise (a stacked (16, 1, 6) @ (6, 729) product
    # of the oracle took 2.3 ms with two threads and 50 us with one)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = package_dir(args.src)
    sys.path.insert(0, str(src))
    import filiform_ce

    packages = {args.label: filiform_ce}
    if args.parent:
        packages = {"before": load_package(package_dir(args.parent), "filiform_ce_parent"), "after": filiform_ce}
    result = {
        "machine": machine(),
        "unit": (
            f"_us: microseconds per call, median over {REPEATS} rounds; "
            f"_s: seconds per run, median over {E2E_RUNS} runs"
        ),
        **measure(packages),
    }
    if args.out:
        merge_into(args.out, result)
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
