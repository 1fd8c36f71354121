"""Contract of the bundled verification harness."""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from filiform_ce import (
    DomainError,
    MANIFEST,
    StructureTensor,
    build_table,
    solve_leibniz_constraints,
    verify,
    verify_all,
)
from filiform_ce.classify import _ORBIT_MONOMIALS
from filiform_ce.subsets import SUBSETS


def test_manifest_is_complete_and_sorted():
    assert len(MANIFEST) == 32
    assert list(MANIFEST) == sorted(MANIFEST)
    assert len(set(MANIFEST)) == len(MANIFEST)


def test_verify_all_passes_small():
    report = verify_all(seed=5, trials=3)
    assert report.passed
    assert [c.check_id for c in report.checks] == list(MANIFEST)
    assert all(c.passed for c in report.checks)
    assert report.failures() == []


def test_verify_reports_are_deterministic():
    a = verify_all(seed=9, trials=2).to_json()
    b = verify_all(seed=9, trials=2).to_json()
    assert a == b
    c = verify_all(seed=10, trials=2).to_json()
    assert c != a


def test_report_json_shape():
    report = verify_all(seed=3, trials=1)
    payload = json.loads(report.to_json())
    assert payload["seed"] == 3
    assert payload["trials"] == 1
    assert payload["summary"] == {"passed": 32, "total": 32}
    assert {c["check_id"] for c in payload["checks"]} == set(MANIFEST)


def test_report_text_form():
    report = verify_all(seed=3, trials=1)
    text = report.to_text()
    assert "passed 32/32" in text
    for check_id in MANIFEST:
        assert check_id in text


def _run_alone(monkeypatch, check_id, fn=None):
    """Run one check, or ``fn`` in its place, through ``verify_all``."""
    check = verify._REGISTRY[check_id]
    if fn is not None:
        check = replace(check, fn=fn)
    monkeypatch.setattr(verify, "_REGISTRY", {check_id: check})
    monkeypatch.setattr(verify, "MANIFEST", (check_id,))
    (result,) = verify_all(seed=1, trials=1).checks
    return result


def _flip_row2(table):
    # negate row 2's off-chain e_n-coefficients: the solved row sign is -1
    g = table.gamma.copy()
    n = g.shape[0] - 1
    for j in range(3, n):
        if j + 2 != n:
            g[2, j, n], g[j, 2, n] = -g[2, j, n], -g[j, 2, n]
    return StructureTensor(g)


def test_corrupted_signs_are_caught(monkeypatch):
    # flipping the second-row sign breaks the identity; every check sees
    # the faulty builder, and among them the ones that measure the
    # residual of built tables must go red and name the broken triple
    monkeypatch.setattr(verify, "build_table", lambda p: _flip_row2(build_table(p)))
    report = verify_all(seed=1, trials=2)
    failed = {c.check_id for c in report.failures()}
    assert "leibniz-validity" in failed
    assert "constraint-reduction" in failed
    notes = {c.check_id: c.notes for c in report.failures()}
    assert "(0, 1, 3)" in notes["leibniz-validity"]


def test_globally_flipped_relations_are_caught(monkeypatch):
    # the free coordinates fix the sign convention, so negating every
    # relation coefficient at once is an error, not another convention
    def flipped(n):
        rep = solve_leibniz_constraints(n)
        relations = tuple(
            replace(r, terms=tuple((src, -c) for src, c in r.terms))
            for r in rep.implied_relations
        )
        return replace(rep, implied_relations=relations)

    monkeypatch.setattr(verify, "solve_leibniz_constraints", flipped)
    result = _run_alone(monkeypatch, "constraint-reduction")
    assert not result.passed
    # n = 4 has no nonzero relation; n = 5 has b23 = -b14
    assert result.notes.startswith("proportionality coefficients differ at n=5")


def test_orbit_table_is_checked_against_published_functions(monkeypatch):
    # a wrong power in the library's table is caught by the published formula
    monkeypatch.setitem(_ORBIT_MONOMIALS, (6, "U_1"), (-64, 1))
    report = verify_all(seed=1, trials=2)
    assert [c.check_id for c in report.checks if not c.passed] == ["orbit-family-n6-U1"]
    assert "off the published function" in report.failures()[0].notes


def test_misnamed_cells_are_caught(monkeypatch):
    # the coverage check reads the names against the paper's U_1 .. U_k
    specs = list(SUBSETS[4])
    specs[0], specs[1] = replace(specs[0], name="U_2"), replace(specs[1], name="U_1")
    monkeypatch.setitem(SUBSETS, 4, tuple(specs))
    result = _run_alone(monkeypatch, "subset-coverage")
    assert not result.passed
    assert result.notes == "cell count at n=4: 9"


@pytest.mark.parametrize(
    "key, check_id, rebuild",
    [
        # a NaN that reaches a gate directly; the registered check captured
        # the formula at import, so it is rebuilt after the patch
        ((4, "U_1"), "orbit-family-n4-U1", True),
        # a NaN sample in the running maximum that the gate reads afterwards
        ((7, "U_9"), "variant-transcription-report", False),
    ],
)
def test_nan_deviation_fails_its_gate(monkeypatch, key, check_id, rebuild):
    # an infinite published value makes the deviation NaN, which no bound admits
    monkeypatch.setitem(verify._PUBLISHED_ORBIT, key, lambda p: complex(np.inf, 0))
    fn = verify._make_orbit_family_check(*key) if rebuild else None
    result = _run_alone(monkeypatch, check_id, fn=fn)
    assert not result.passed
    assert "by nan" in result.notes


def test_trials_must_be_positive():
    with pytest.raises(DomainError):
        verify_all(trials=0)


_LIFTED_PROBE = """
import cmath, json
import filiform_ce as fc
from filiform_ce.subsets import parametric_subsets
report = fc.verify_all(1, 2)
values = {}
for cell in parametric_subsets(9):
    value = fc.classify(fc.random_params(9, cell, seed=1)).invariants.orbit_value
    values[cell] = value is not None and cmath.isfinite(value)
print(json.dumps({"file": fc.__file__, "summary": report.summary, "finite": values,
                  "ids": [c.check_id for c in report.checks], "manifest": list(fc.MANIFEST)}))
"""


def _rewrite_once(path: Path, pattern: str, repl: str) -> None:
    text, hits = re.subn(pattern, repl, path.read_text(), flags=re.M)
    assert hits == 1, f"{pattern!r} matched {hits} times in {path.name}"
    path.write_text(text)


@pytest.fixture(scope="module")
def lifted_env(tmp_path_factory):
    """Environment that imports a copy of ``src/`` lifted to n = 4..20, with
    CHAIN_FIRST[n] = (n - 1) // 2 above the paper's ranks."""
    tmp = tmp_path_factory.mktemp("lifted")
    shutil.copytree(Path(__file__).resolve().parents[1] / "src", tmp / "src", ignore=shutil.ignore_patterns("__pycache__"))
    subsets = tmp / "src" / "filiform_ce" / "subsets.py"
    _rewrite_once(subsets, r"^N_RANGE = range\(4, 9\)$", "N_RANGE = range(4, 21)")
    chain_first = ", ".join(f"{n}: {(n - 1) // 2}" for n in range(9, 21))
    _rewrite_once(subsets, r"^(CHAIN_FIRST = \{[^}]*)\}$", rf"\1, {chain_first}}}")
    return {**os.environ, "PYTHONPATH": str(tmp / "src")}


def _run_probe(probe: str, env: dict) -> dict:
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert Path(out["file"]).is_relative_to(Path(env["PYTHONPATH"]))
    return out


def test_harness_keeps_the_paper_ranks_when_the_library_lifts_its_range(lifted_env):
    # the library at n = 4..20: the package imports, the harness still runs
    # the paper's 32 checks on 4..8, and the n = 9 parametric cells get
    # orbit values from the rule
    out = _run_probe(_LIFTED_PROBE, lifted_env)
    assert out["summary"] == [32, 32]
    assert out["manifest"] == list(MANIFEST) == out["ids"]
    assert out["finite"] == {"U_1": True, "U_5": True, "U_9": True, "U_13": True}


_CELLS_PROBE = """
import cmath, json, math
import filiform_ce as fc
from filiform_ce.classify import STABILIZERS
from filiform_ce.subsets import SUBSETS

def close(x, y):
    return x == y or abs(x - y) <= 1e-6 * (1 + abs(x))

def member_checks(n, cell, seed):
    p = fc.random_params(n, cell, seed=seed)
    q = fc.act_on_params(fc.random_transform(n, seed=seed + 100, b=p.b), p)
    return [fc.classify(p).subset == cell, fc.isomorphic(p, q)[0], close(fc.orbit_invariant(p), fc.orbit_invariant(q))]

def stabilizer_checks(n, cell, lam=1.3 * cmath.exp(0.4j)):
    order, e = STABILIZERS[n, cell]
    k = order // math.gcd(order, e)
    rep = lambda z: fc.representative_params(n, cell, z * lam)
    zeta = lambda m: cmath.exp(2j * cmath.pi / m)
    out = [fc.isomorphic(rep(1), rep(zeta(k)))[0]]
    if k < order:
        out += [not fc.isomorphic(rep(1), rep(zeta(order)))[0],
                not close(fc.orbit_invariant(rep(1)), fc.orbit_invariant(rep(zeta(order))))]
    return out

def attempt(f, *args):
    try:
        return f(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"

members = {f"{n} {s.name}": [attempt(member_checks, n, s.name, seed) for seed in range(3)]
           for n in range(9, 21) for s in SUBSETS[n]}
stabilizers = {f"{n} {cell}": attempt(stabilizer_checks, n, cell) for n, cell in STABILIZERS if n > 8}
gcd = sorted(f"{n} {cell}" for (n, cell), (order, e) in STABILIZERS.items() if math.gcd(order, e) > 1)
print(json.dumps({"file": fc.__file__, "members": members, "stabilizers": stabilizers, "gcd": gcd}))
"""


def test_cells_and_stabilizers_hold_when_the_library_lifts_its_range_to_20(lifted_env):
    # at every cell of n = 9..20, seeded members classify into their own cell,
    # match their images under a transform, and share the image's orbit value;
    # a stabilizer of order m moving lam by A0**e fixes lam only up to k-th
    # roots of unity, k = m / gcd(m, e): lam and zeta_k * lam are one orbit,
    # and where k < m, lam and zeta_m * lam are two, with two orbit values
    out = _run_probe(_CELLS_PROBE, lifted_env)
    bad = {cell: got for cell, got in out["members"].items() if got != [[True, True, True]] * 3}
    assert bad == {}
    bad = {cell: got for cell, got in out["stabilizers"].items() if not (isinstance(got, list) and all(got))}
    assert bad == {}
    assert out["gcd"] == ["14 U_5", "17 U_13", "20 U_5"]
    assert all(len(out["stabilizers"][cell]) == 3 for cell in out["gcd"])


_SOLVE_PROBE = """
import json
import filiform_ce as fc
from filiform_ce import family
from filiform_ce.subsets import free_pairs, label
free = {n: [fc.solve_leibniz_constraints(n).free_count, len(free_pairs(n))] for n in range(9, 16)}
residual = {n: fc.leibniz_residual(fc.build_table(fc.random_params(n, seed=n))) for n in range(9, 15)}
distinct = [n for n in range(4, 21) if len(set(map(label, family._unknowns(n)))) == len(family._unknowns(n))]
print(json.dumps({"file": fc.__file__, "free": free, "residual": residual, "distinct": distinct}))
"""


def test_solve_and_tables_hold_when_the_library_lifts_its_range_to_14(lifted_env):
    # on the lifted copy: from n = 12 on a name such as b1011 cannot be read
    # back as its pair; the unknowns are pairs, so the solve finds the
    # free-pair rule's count up to n = 15, every table satisfies the identity
    # exactly, and the names spelled at the output edge stay distinct up to n = 20
    out = _run_probe(_SOLVE_PROBE, lifted_env)
    assert out["free"] == {str(n): [c, c] for n, c in zip(range(9, 16), (7, 7, 8, 8, 9, 9, 10))}
    assert out["residual"] == {str(n): 0.0 for n in range(9, 15)}
    assert out["distinct"] == list(range(4, 21))
