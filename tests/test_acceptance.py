"""Acceptance suite: the eight end-to-end guarantees, one test each.

Each test prints one ``ACCEPTANCE k ...: PASS/FAIL`` line (visible with
``pytest -s`` or in captured output on failure).  Tolerances and sample
counts are part of the contract and must not be loosened.
"""

import cmath
import functools
import time

import numpy as np
import pytest

from filiform_ce import (
    MANIFEST,
    act_on_params,
    adapted_matrix,
    build_table,
    canonicalize,
    change_basis,
    isomorphic,
    leibniz_residual,
    orbit_invariant,
    params_from_tuple,
    random_params,
    read_params,
    representative_params,
    solve_leibniz_constraints,
    subset_of,
    verify_all,
)
from filiform_ce.action import AdaptedTransform
from filiform_ce.classify import STABILIZERS
from filiform_ce.subsets import SUBSETS, parametric_subsets

N_RANGE = range(4, 9)


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} {title}: FAIL")
                raise
            print(f"ACCEPTANCE {num} {title}: PASS")

        return wrapper

    return deco


def tuple_dev(p, q):
    return max(abs(x - y) for x, y in zip(p.as_tuple(), q.as_tuple()))


def sample_value(rng):
    """Magnitude in [0.5, 2]; half real with random sign, half random phase."""
    m = rng.uniform(0.5, 2.0)
    if rng.random() < 0.5:
        return complex(m * (1 if rng.random() < 0.5 else -1))
    return m * cmath.exp(2j * cmath.pi * rng.random())


def sample_params(n, rng):
    width = 3 + (n - 2) // 2 + (n % 2)
    return params_from_tuple(n, [sample_value(rng) for _ in range(width)])


def sample_transform(n, rng, b):
    while True:
        t = AdaptedTransform(
            n,
            sample_value(rng),
            sample_value(rng),
            tuple(sample_value(rng) for _ in range(n - 2)),
        )
        if abs(t.A0 + t.A1 * b) > 0.05:
            return t


# ---------------------------------------------------------------------------
# 1. every member of the family satisfies the bracket identity


@criterion(1, "table validity")
def test_criterion_1_tables_satisfy_identity():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for n in N_RANGE:
        for _ in range(1000):
            p = sample_params(n, rng)
            t = build_table(p)
            assert leibniz_residual(t) <= 1e-9 * t.scale(), p
    elapsed = time.monotonic() - start
    assert elapsed <= 10.0, f"residual sweep took {elapsed:.1f}s (budget 10s)"


# ---------------------------------------------------------------------------
# 2. the constraint solver reproduces the published reduction


# per-size chain identities among the pair coefficients, as published;
# each row is (target, source, coefficient), compared up to one global
# sign that the solver's own row-sign convention fixes
PUBLISHED_CHAINS = {
    5: [("b23", "b14", 1)],
    6: [("b23", "b14", -1)],
    7: [("b25", "b16", 1), ("b34", "b16", -1)],
    8: [("b25", "b16", -1), ("b34", "b16", 1)],
}


@criterion(2, "constraint reduction")
def test_criterion_2_constraint_solver():
    assert {n: solve_leibniz_constraints(n).free_count for n in N_RANGE} == {
        4: 4,
        5: 5,
        6: 5,
        7: 6,
        8: 6,
    }
    for n in N_RANGE:
        rep = solve_leibniz_constraints(n)
        free = set(rep.free_labels)
        rel = {
            r.target: {lbl: c for lbl, c in r.terms if abs(c) > 1e-9}
            for r in rep.implied_relations
        }

        def coeff(i, j):
            # coefficient of b_{i,j} on its diagonal's free source; free
            # labels count as +1 on themselves, forced zeros as 0
            label = f"b{i}{j}"
            if label in free:
                return 1.0
            terms = rel[label]
            if not terms:
                return 0.0
            assert len(terms) == 1, label
            (value,) = terms.values()
            assert abs(abs(value) - 1) < 1e-9, label
            return value.real if hasattr(value, "real") else value

        # odd first-row coefficients vanish
        for m in range(3, n - 1, 2):
            assert coeff(1, m) == 0, (n, m)
        # one diagonal step flips the sign: b_{i+1,j} = -b_{i,j+1}
        for i in range(1, n - 2):
            for j in range(i + 2, n - 1):
                lhs = coeff(i + 1, j)
                rhs = coeff(i, j + 1)
                if lhs == 0 or rhs == 0:
                    assert lhs == rhs == 0, (n, i, j)
                else:
                    assert lhs == pytest.approx(-rhs), (n, i, j)
        # published chains, up to one global sign per size
        chains = PUBLISHED_CHAINS.get(n, [])
        if chains:
            flips = set()
            for target, source, printed in chains:
                terms = rel[target]
                assert set(terms) == {source}, (n, target)
                flips.add(round((terms[source] / printed).real))
            assert flips in ({1}, {-1}), (n, flips)


# ---------------------------------------------------------------------------
# 3. closed-form action equals the basis-change route


@criterion(3, "action closed forms")
def test_criterion_3_action_agreement():
    rng = np.random.default_rng(303)
    for n in N_RANGE:
        for _ in range(200):
            p = sample_params(n, rng)
            t = sample_transform(n, rng, p.b)
            fast = act_on_params(t, p)
            slow = read_params(change_basis(build_table(p), adapted_matrix(t, p)))
            assert tuple_dev(fast, slow) <= 1e-8 * (1 + p.scale()), (n, p, t)


# ---------------------------------------------------------------------------
# 4. every sampled member reaches its cell's representative
#    (shared with criterion 7, which re-checks the witnesses on tensors)


@functools.lru_cache(maxsize=1)
def canonical_runs():
    """(p, OrbitLabel) for 100 members of every cell of every size."""
    runs = []
    for n in N_RANGE:
        for spec in SUBSETS[n]:
            for seed in range(100):
                p = random_params(n, spec.name, seed=seed)
                runs.append((p, canonicalize(p)))
    return runs


SPOT_REPRESENTATIVES = [
    (4, "U_2", (1, 0, 1, 0)),
    (7, "U_13", (1, 0, 1, 0, 0, 0)),
    (8, "U_17", (0, 0, 0, 0, 0, 0)),
]


@criterion(4, "normal forms")
def test_criterion_4_normal_forms():
    for n, name, values in SPOT_REPRESENTATIVES:
        rep = representative_params(n, name, None)
        assert rep.as_tuple() == tuple(complex(v) for v in values)
    for p, label in canonical_runs():
        assert label.subset == subset_of(p)
        want = representative_params(p.n, label.subset, label.lam)
        achieved = act_on_params(label.witness, p)
        assert tuple_dev(achieved, want) <= 1e-6 * (1 + want.scale()), (p, label.subset)


# ---------------------------------------------------------------------------
# 5. orbit functions are invariant along orbits


@criterion(5, "orbit invariance")
def test_criterion_5_orbit_invariance():
    rng = np.random.default_rng(505)
    cells = [(n, name) for n in N_RANGE for name in parametric_subsets(n)]
    assert len(cells) == 11
    for n, name in cells:
        for trial in range(200):
            p = random_params(n, name, seed=10_000 + trial)
            value = orbit_invariant(p)
            assert value is not None, (n, name, trial)
            t = sample_transform(n, rng, p.b)
            q = act_on_params(t, p)
            assert subset_of(q) == name, (n, name, trial)
            moved = orbit_invariant(q)
            assert abs(moved - value) <= 1e-6 * (1 + abs(value)), (n, name, trial)


# ---------------------------------------------------------------------------
# 6. the canonical parameter is faithful


@criterion(6, "lambda faithfulness")
def test_criterion_6_lambda_faithful():
    rng = np.random.default_rng(606)
    for n in N_RANGE:
        for name in parametric_subsets(n):
            order = STABILIZERS.get((n, name), (1, 0))[0]
            lams = []
            for _ in range(50):
                # fundamental domain of the finite stabilizer, so distinct
                # draws are genuinely non-equivalent
                mag = rng.uniform(0.3, 2.0)
                arg = rng.uniform(0.0, 2 * np.pi / order)
                lams.append(mag * cmath.exp(1j * arg))
            for lam in lams:
                rep = representative_params(n, name, lam)
                label = canonicalize(rep)
                assert label.subset == name
                assert abs(label.lam - lam) <= 1e-9 * (1 + abs(lam)), (n, name, lam)
            for a, b in zip(lams, lams[1:]):
                if abs(a - b) < 1e-3:
                    continue
                same, _ = isomorphic(
                    representative_params(n, name, a),
                    representative_params(n, name, b),
                )
                assert not same, (n, name, a, b)


# ---------------------------------------------------------------------------
# 7. witnesses act correctly on the structure tensors themselves


@criterion(7, "witness validity")
def test_criterion_7_witnesses_on_tensors():
    for p, label in canonical_runs():
        rep = representative_params(p.n, label.subset, label.lam)
        target = build_table(rep).gamma
        moved = change_basis(build_table(p), adapted_matrix(label.witness, p)).gamma
        dev = float(np.max(np.abs(moved - target)))
        assert dev <= 1e-6 * (1 + float(np.max(np.abs(target)))), (p, label.subset, dev)


# ---------------------------------------------------------------------------
# 8. the bundled harness re-verifies the published results


@criterion(8, "verification harness")
def test_criterion_8_harness():
    start = time.monotonic()
    report = verify_all(seed=1, trials=100)
    elapsed = time.monotonic() - start
    assert report.passed, [c.check_id for c in report.failures()]
    assert report.failures() == []
    assert len(report.checks) == len(MANIFEST) == 32
    assert {c.check_id for c in report.checks} == set(MANIFEST)
    assert elapsed <= 60.0, f"harness took {elapsed:.1f}s (budget 60s)"
