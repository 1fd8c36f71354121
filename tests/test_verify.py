"""Contract of the bundled verification harness."""

import functools
import hashlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from filiform_ce import (
    AdaptedTransform,
    DegenerateTransformError,
    DomainError,
    FiliformError,
    MANIFEST,
    SingularMatrixError,
    StructureTensor,
    TableShapeError,
    adapted_matrix,
    build_table,
    change_basis,
    params_from_tuple,
    read_params,
    solve_leibniz_constraints,
    tensor,
    verify,
    verify_all,
)
from filiform_ce.action import _read_stack
from filiform_ce.classify import _ORBIT_MONOMIALS
from filiform_ce.subsets import SUBSETS, free_pairs


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


def _run_alone(monkeypatch, check_id, fn=None, trials=1):
    """Run one check, or ``fn`` in its place, through ``verify_all``."""
    check = verify._REGISTRY[check_id]
    if fn is not None:
        check = replace(check, fn=fn)
    monkeypatch.setattr(verify, "_REGISTRY", {check_id: check})
    monkeypatch.setattr(verify, "MANIFEST", (check_id,))
    (result,) = verify_all(seed=1, trials=trials).checks
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
    # flipping the second-row sign breaks the identity; every check that
    # builds tables through the harness's binding sees the faulty builder
    # (the stacked tensor route builds its own), and among them the ones
    # that measure the residual of built tables must go red and name the
    # broken triple
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
    # the NaN that stopped the check is its worst value, not the last finite one
    assert math.isnan(result.max_residual)


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


#: sha256 of ``verify_all(1, trials).to_json()`` per trials, recorded with
#: numpy 2.4.6 (OpenBLAS 0.3.31) before the tensor route ran on stacks.  The
#: tensor-route gates record residuals whose last bits follow the BLAS
#: kernel, so there is one hash per kernel family: SkylakeX, Haswell (also
#: chosen on Zen), Sandybridge, and Nehalem or older.
_PINNED_REPORTS = {
    "2.4.6": {
        20: {
            "304d42630b88f4675adc817babfe74c00b02a957fb4ddda6e54c0b41b60a5295",
            "eab671023e23643b55b645b024994042ac0f7392ec1f1735969a7fa7fd866923",
            "5cfdef0941a8708d7f5938f494398028be85acb032ee7556cba4d0d863509583",
            "1beaf1bd6e67c876974b935e2f0276a75561542e4bb9edbd44646aaa834f88ba",
        },
        100: {
            "a7ded4c93e5979f86b67db1f62e708b0d1064d3158d3ed3a0e49b5cb9a623bf0",
            "605240da6f88327129031fcf26796e58e1520fe49d3a122f37911ce51d5a4211",
        },
    },
}


@pytest.mark.parametrize("trials", [20, 100])
def test_seeded_report_is_pinned(trials):
    # the report is byte-identical across changes to how it is computed,
    # not only from one run to the next
    pinned = _PINNED_REPORTS.get(np.__version__)
    if pinned is None:
        pytest.skip(f"seeded report hashes are recorded for numpy {sorted(_PINNED_REPORTS)}, not {np.__version__}")
    digest = hashlib.sha256(verify_all(1, trials).to_json().encode()).hexdigest()
    assert digest in pinned[trials]


def _outcome(call, *args):
    """What a call gives, comparable bit for bit: the bytes of its values, or
    its exception's type and message (warnings raise)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(*args)
        except Exception as exc:
            return type(exc), str(exc)
    return _bits(out)


def _bits(out):
    if isinstance(out, tuple):
        return tuple(map(_bits, out))
    values = out.as_tuple() if hasattr(out, "as_tuple") else out
    return np.asarray(values, dtype=complex).tobytes()


def _stacked(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the pass itself never warns
        return call(*args)


def _scaled_pairs(n, magnitude, rng):
    """A chunk of (member, transform) pairs, the members scaled by
    ``magnitude``, a quarter of their slots exact zeros."""
    pairs = []
    for _ in range(verify._CHUNK):
        p, t = verify._pair(n, rng)
        values = [0j if rng.random() < 0.25 else v * magnitude for v in p.as_tuple()]
        pairs.append((params_from_tuple(n, values), t))
    return pairs


def _factor_steps(p, t):
    """The steps of ``elementary-decomposition``'s route, or None where the
    closed-form factor chain raises."""
    try:
        return verify._chain(p, t)[0]
    except FiliformError:
        return None


#: the routed checks' steps rules on a (member, transform) pair, and
#: whether the route reads the moved table back
_ROUTES = {
    "adapted": (lambda p, t: [(t, p)], True),
    "witness": (lambda p, t: [(t, p)], False),
    "factor": (_factor_steps, True),
}


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("magnitude", [1e-150, 1e-75, 1.0, 1e75, 1e150])
def test_stacked_route_is_the_member_route_bit_for_bit(n, magnitude):
    # the pass gives, member by member, the bytes of the member's own
    # route, signed zeros included; it leaves out exactly the members whose
    # own route raises or warns, and those without steps
    pairs = _scaled_pairs(n, magnitude, np.random.default_rng([n, round(np.log10(magnitude)) + 200]))
    ps = [p for p, _ in pairs]
    passes = {}
    for name, (rule, read) in _ROUTES.items():
        steps = [rule(p, t) for p, t in pairs]
        passes[name] = _stacked(verify._oracle_pass, ps, steps, read)
        for p, s, got in zip(ps, steps, passes[name]):
            if s is None:
                assert got is None
                continue
            want = _outcome(verify._oracle, p, s, read)
            if got is None:
                assert isinstance(want[0], type)
            else:
                assert _bits(got) == want
    # the read-off itself, against plain indexing and negation of each
    # entry, on the members both passes kept
    for got, table in zip(passes["adapted"], passes["witness"]):
        if got is None or table is None:
            continue
        want = [-table[i, j, n] if (i, j) == (1, n - 1) else table[i, j, n] for i, j in free_pairs(n)]
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("n", range(4, 9))
def test_stacked_route_hands_rejected_members_to_their_own_call(n):
    # planted transforms: the pass leaves each out, the member's route
    # raises its own call's exception (a warning raises too) at its turn,
    # and the members around it come out bit for bit
    rng = np.random.default_rng(n)
    pairs = [verify._pair(n, rng) for _ in range(verify._CHUNK)]
    unit = (1,) + (0,) * (n - 3)
    t7 = pairs[7][1]
    planted = {
        # degenerate: left out before its matrix is built
        5: (AdaptedTransform(n, 0, 1, unit), DegenerateTransformError),
        # A0*B_1 underflows to a zero on the diagonal
        7: (AdaptedTransform(n, 1e-200, t7.A1, (1e-200, *t7.B[1:])), SingularMatrixError),
        # |A0 + A1*b| overflows, though A0 is finite
        9: (AdaptedTransform(n, 1.5e308 + 1.5e308j, 0, unit), DomainError),
        # the moved table overflows
        11: (AdaptedTransform(n, 1, 1e300, unit), RuntimeWarning),
    }
    for k, (t, _) in planted.items():
        pairs[k] = (pairs[k][0], t)
    ps = [p for p, _ in pairs]
    for read in (True, False):
        stacked = _stacked(verify._oracle_pass, ps, [[(t, p)] for p, t in pairs], read)
        assert [k for k, r in enumerate(stacked) if r is None] == sorted(planted)
        trials = _stacked(list, verify._trials(len(pairs), iter(pairs).__next__, lambda p, t: [(t, p)], read))
        for k, ((p, t), route) in enumerate(trials):
            got = _outcome(route)
            assert got == _outcome(verify._oracle, p, [(t, p)], read)
            assert got[0] is planted[k][1] if k in planted else not isinstance(got[0], type)
    # an off-pattern entry and a matrix that is not lower triangular come
    # from no adapted step: the stack forms of change_basis and read_params
    # leave them out, and each member's own calls refuse it or, on the
    # scaled route, move it off the family
    gamma = np.array([build_table(p).gamma for p, _ in pairs])
    g = np.array([np.eye(n + 1) if k in planted else adapted_matrix(t, p) for k, (p, t) in enumerate(pairs)])
    gamma[3, 2, 2, n] += 0.5  # an off-pattern entry: TableShapeError on reading back
    g[13, 0, 1] = 0.5  # not lower triangular: change_basis takes the scaled inverse
    moved, kept = _stacked(tensor._change_stack, gamma, g)
    assert list(np.flatnonzero(~kept)) == [13]
    values, read = _stacked(_read_stack, n, moved)
    assert list(np.flatnonzero(~(kept & read))) == [3, 13]
    for k, (table, matrix) in enumerate(zip(gamma, g)):
        member = change_basis(StructureTensor(table), matrix)
        if kept[k]:
            assert _bits(moved[k]) == _bits(member.gamma)
        if kept[k] & read[k]:
            assert _bits(values[k]) == _outcome(read_params, member)
        else:
            with pytest.raises(TableShapeError):
                read_params(member)


def test_a_guard_planted_in_change_basis_reaches_the_stacked_route(monkeypatch):
    # one more refusal in change_basis's guard, and nothing else changed:
    # the stacked pass leaves out the one member it refuses on every
    # routed check's steps, and that member's own route raises it at its turn
    n, planted = 6, "planted refusal: |g[0, 0]| > 1.5"
    rng = np.random.default_rng(26)
    calm, wild = [], []
    while len(calm) < verify._CHUNK - 1 or not wild:
        p, t = verify._pair(n, rng)
        (wild if abs(t.A0) > 1.5 else calm).append((p, t))
    pairs = calm[:5] + wild[:1] + calm[5 : verify._CHUNK - 1]
    ps = [p for p, _ in pairs]
    real = tensor._matrix_guards
    monkeypatch.setattr(
        tensor,
        "_matrix_guards",
        lambda g, above: (*real(g, above), (np.abs(g[..., 0, 0]) <= 1.5, DomainError, planted)),
    )
    for name, (rule, read) in _ROUTES.items():
        stacked = _stacked(verify._oracle_pass, ps, [rule(p, t) for p, t in pairs], read)
        assert [k for k, r in enumerate(stacked) if r is None] == [5], name
        trials = _stacked(list, verify._trials(len(pairs), iter(pairs).__next__, rule, read))
        for k, ((p, t), route) in enumerate(trials):
            if k == 5:
                with pytest.raises(DomainError, match=re.escape(planted)):
                    route()
            else:
                assert _bits(route()) == _outcome(verify._oracle, p, rule(p, t), read), (name, k)


def _member_by_member(count, draw, steps, read):
    """The loop that the chunks replace: draw a trial, then its own route on demand."""
    for _ in range(count):
        x = draw()
        yield x, functools.partial(verify._oracle, x[0], steps(*x), read)


@pytest.mark.parametrize(
    "check_id, trials, failing_call",
    [
        # one _tuple_dev call per trial: trial 21, the sixth of the second chunk
        ("action-closed-forms-n6", 40, 21),
        # two calls per trial, 20 trials per rank: trial 10 of n = 4
        ("elementary-decomposition", 40, 21),
        # one call per trial, 12 per cell: the sixth of the second cell's routed ten
        ("single-orbit-classes-n7", 12, 17),
    ],
)
def test_gate_failing_mid_chunk_matches_the_member_loop(monkeypatch, check_id, trials, failing_call):
    # one trial's deviation is perturbed past its gate; drawing and routing
    # a chunk ahead must report the same trial, note and worst value as the
    # loop that routes one member at a time
    real = verify._tuple_dev

    def run(helper):
        calls = itertools.count()
        monkeypatch.setattr(verify, "_tuple_dev", lambda p, q: 2e-6 if next(calls) == failing_call else real(p, q))
        monkeypatch.setattr(verify, "_trials", helper)
        return _run_alone(monkeypatch, check_id, trials=trials)

    chunked, looped = run(verify._trials), run(_member_by_member)
    assert not chunked.passed and "2.000e-06" in chunked.notes
    assert (chunked.notes, chunked.max_residual) == (looped.notes, looped.max_residual)
