"""Extension family: parameter tuples, constraint solving, table building."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filiform_ce import (
    AdaptedTransform,
    DomainError,
    ExtensionParams,
    FiliformError,
    StructureTensor,
    act_on_params,
    build_mu,
    build_table,
    from_entries,
    leibniz_residual,
    params_from_tuple,
    random_params,
    random_transform,
    read_params,
    representative_params,
    representatives,
    solve_leibniz_constraints,
    subset_of,
)
from filiform_ce import family
from filiform_ce.subsets import PARAM_SLOTS, SUBSETS, free_pairs, parametric_subsets

import oracles


# ---------------------------------------------------------------------------
# base algebra table


def test_build_mu_entries_frozen():
    t = build_mu(4)
    want = {(1, 0, 2): 1, (2, 0, 3): 1, (3, 0, 4): 1}
    for idx, v in want.items():
        assert t.gamma[idx] == v
    assert np.count_nonzero(t.gamma) == len(want)


def test_build_mu_rejects_small_n():
    for bad in (-1, 0, 1):
        with pytest.raises(DomainError):
            build_mu(bad)


# ---------------------------------------------------------------------------
# parameter tuples


def test_params_validation():
    with pytest.raises(DomainError):
        ExtensionParams(3, 0, 0, 0, ())  # n out of range
    with pytest.raises(DomainError):
        ExtensionParams(4, 0, 0, 0, (1, 2))  # wrong even-slot count
    with pytest.raises(DomainError):
        ExtensionParams(4, 0, 0, 0, (0,), b=1)  # top label must vanish, n even
    with pytest.raises(DomainError):
        ExtensionParams(4, float("nan"), 0, 0, (0,))


def test_params_are_slotted_and_frozen():
    p = ExtensionParams(5, 1, 2.5, -1j, (0.5,), 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.b00 = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        p._values = ()
    assert not hasattr(p, "__dict__")


def test_params_repr_frozen():
    # recorded before the class was slotted; ``_values`` stays out of it
    assert repr(ExtensionParams(5, 1, 2.5, -1j, (0.5,), 3)) == (
        "ExtensionParams(n=5, b00=(1+0j), b01=(2.5+0j), b11=(-0-1j), b_even=((0.5+0j),), b=(3+0j))"
    )
    assert repr(ExtensionParams(4, 0, 1, 0, (2,))) == (
        "ExtensionParams(n=4, b00=0j, b01=(1+0j), b11=0j, b_even=((2+0j),), b=0j)"
    )


def test_params_equality_and_hash():
    p = ExtensionParams(5, 1, 2.5, -1j, (0.5,), 3)
    q = ExtensionParams(5, 1.0, 2.5 + 0j, -1j, [0.5], 3.0)
    assert p == q and hash(p) == hash(q)
    assert len({p, q}) == 1
    assert p != ExtensionParams(5, 1, 2.5, -1j, (0.5,), 4)


def test_params_replace_validates_again():
    p = ExtensionParams(5, 1, 2.5, -1j, (0.5,), 3)
    with pytest.raises(DomainError, match="extension parameters must be finite"):
        dataclasses.replace(p, b00=float("nan"))
    with pytest.raises(DomainError, match="b_even must have length 1"):
        dataclasses.replace(p, b_even=())
    q = dataclasses.replace(p, b_even=[2])
    assert q.b_even == (2 + 0j,) and type(q.b_even[0]) is complex
    assert q.as_tuple() == (1, 2.5, -1j, 2, 3)


def test_params_copy_and_pickle():
    for p in (ExtensionParams(5, 1, 2.5, -1j, (0.5,), 3), random_params(8, seed=3)):
        for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert q == p and q.as_tuple() == p.as_tuple()


@pytest.mark.parametrize("cls", [ExtensionParams, AdaptedTransform, StructureTensor])
def test_value_objects_validate_in_their_own_hook(cls):
    # perfbench/tracer.py wraps this class attribute to count constructions
    assert "__post_init__" in vars(cls)


def test_every_construction_runs_the_class_hook(monkeypatch):
    seen = []
    hook = ExtensionParams.__post_init__

    def counted(self, n, *args):
        seen.append(n)
        return hook(self, n, *args)

    monkeypatch.setattr(ExtensionParams, "__post_init__", counted)
    p = ExtensionParams(5, 1, 2.5, -1j, (0.5,), 3)
    params_from_tuple(4, [1, 2, 3, 4])
    dataclasses.replace(p, b=1)
    act_on_params(AdaptedTransform(5, 2, 0, (1, 0, 0)), p)
    assert seen == [5, 4, 5, 5]


def test_params_slot_access():
    p = params_from_tuple(8, [1, 2, 3, 4, 5, 6])
    assert p.b00 == 1 and p.b01 == 2 and p.b11 == 3
    assert (p.b12, p.b14, p.b16) == (4, 5, 6)
    assert p.b == 0
    assert p.delta == 2 * 2 - 4 * 1 * 3
    # slot names index the tuple in PARAM_SLOTS order
    assert tuple(getattr(p, s) for s in PARAM_SLOTS[8]) == p.as_tuple() == (1, 2, 3, 4, 5, 6)


def test_slot_zero_fill_for_missing_evens():
    p = params_from_tuple(4, [1, 0, 0, 2])
    assert p.b12 == 2
    assert p.b14 == 0 and p.b16 == 0


@given(st.integers(4, 8), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_tuple_roundtrip(n, seed):
    p = random_params(n, seed=seed)
    assert params_from_tuple(n, p.as_tuple()) == p


def test_tuple_length_is_checked():
    with pytest.raises(DomainError):
        params_from_tuple(5, [1, 2, 3])


RANK_ENTRY_POINTS = {
    "ExtensionParams": lambda n: ExtensionParams(n, 0, 0, 0, (0,) * ((n - 2) // 2)),
    # five values fit neither rank: the rank must be named, not the length
    "params_from_tuple": lambda n: params_from_tuple(n, [0] * 5),
    "AdaptedTransform": lambda n: AdaptedTransform(n, 1, 0, (0,) * (n - 2)),
    "read_params": lambda n: read_params(from_entries(n + 1, {})),
    "random_params": lambda n: random_params(n),
    "representatives": lambda n: representatives(n),
}


@pytest.mark.parametrize("n", [3, 9])
@pytest.mark.parametrize("entry", sorted(RANK_ENTRY_POINTS))
def test_rank_contract(entry, n):
    # every entry point refuses a rank outside the family with one wording
    with pytest.raises(DomainError) as err:
        RANK_ENTRY_POINTS[entry](n)
    assert str(err.value) == f"n must be in 4..8, got {n}"


FLOAT_RANK_CALLS = {
    "ExtensionParams": lambda: ExtensionParams(4.0, 0, 0, 1, (1,)),
    "params_from_tuple": lambda: params_from_tuple(4.0, [0, 0, 1, 1]),
    "AdaptedTransform": lambda: AdaptedTransform(4.0, 1, 0, (1, 0)),
    "random_params": lambda: random_params(4.0),
    "representatives": lambda: representatives(4.0),
    "representative_params": lambda: representative_params(4.0, "U_2"),
}


@pytest.mark.parametrize("entry", sorted(FLOAT_RANK_CALLS))
def test_float_rank_is_refused(entry):
    # 4.0 == 4, but no table has 4.0 rows: refused up front, not a TypeError later
    with pytest.raises(DomainError) as err:
        FLOAT_RANK_CALLS[entry]()
    assert str(err.value) == "n must be in 4..8, got 4.0"


def test_solver_refuses_float_rank():
    solve_leibniz_constraints(4)  # 4.0 must not hit the cached rank-4 report
    for n in (4.0, 4.5):
        with pytest.raises(DomainError) as err:
            solve_leibniz_constraints(n)
        assert str(err.value) == f"n must be in 4..9, got {n}"


def test_random_params_deterministic():
    assert random_params(6, seed=42) == random_params(6, seed=42)
    assert random_params(6, seed=42) != random_params(6, seed=43)


# random_params(n, seed=42), recorded while the sign draw still used
# Generator.choice; integers(0, 2) must draw the same.  No rank resamples
# at this seed, so every rank reads a prefix of one stream: one value per
# slot of PARAM_SLOTS[n], each real with imaginary part +0.0.
STREAM_SEED_42 = (
    "0x1.a932f9b3a245bp+0",
    "-0x1.c9b39c23a6472p+0",
    "-0x1.8bca11152100dp+0",
    "-0x1.f6a394644a2b0p+0",
    "0x1.a44713c79a876p+0",
    "0x1.62642a438a287p-1",
)


def test_random_params_stream_frozen():
    # a change to the draw order or to the draws themselves fails here
    for n in range(4, 9):
        values = random_params(n, seed=42).as_tuple()
        assert [z.real.hex() for z in values] == list(STREAM_SEED_42[: len(PARAM_SLOTS[n])]), n
        assert all(z.imag.hex() == "0x0.0p+0" for z in values), n


def test_random_params_land_in_requested_cell():
    for n in range(4, 9):
        for spec in SUBSETS[n]:
            for seed in range(5):
                p = random_params(n, spec.name, seed=seed)
                assert subset_of(p) == spec.name, (n, spec.name, seed)


def test_random_params_unknown_cell():
    with pytest.raises(DomainError):
        random_params(4, "U_99")


SEEDED_DRAWS = {
    "random_params": lambda seed, rng=None: random_params(4, seed=seed, rng=rng),
    "random_transform": lambda seed, rng=None: random_transform(4, seed=seed, rng=rng),
}


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1", [1, 2]])
@pytest.mark.parametrize("draw", sorted(SEEDED_DRAWS))
def test_seed_must_be_none_or_a_non_negative_int(draw, seed):
    # numpy would raise ValueError or TypeError from SeedSequence instead
    with pytest.raises(DomainError) as err:
        SEEDED_DRAWS[draw](seed)
    assert str(err.value) == f"seed must be None or an int >= 0, got {seed!r}"


@pytest.mark.parametrize("draw", sorted(SEEDED_DRAWS))
def test_seed_is_not_read_when_a_generator_is_passed(draw):
    # the harness passes rng=, so its draws never meet the seed test
    call = SEEDED_DRAWS[draw]
    assert call(-1, rng=np.random.default_rng(7)) == call(7)
    assert call(None) is not None


# ---------------------------------------------------------------------------
# constraint solving

# worked by hand from the residual recurrence; see oracles.expected_relations
FREE_COUNTS = {4: 4, 5: 5, 6: 5, 7: 6, 8: 6}


def test_free_coordinate_counts():
    for n, count in FREE_COUNTS.items():
        rep = solve_leibniz_constraints(n)
        assert rep.free_count == count
        assert len(rep.free_labels) == count
        assert rep.rank == rep.total_unknowns - count


def test_free_labels_match_reference():
    for n in range(4, 9):
        rep = solve_leibniz_constraints(n)
        assert list(rep.free_labels) == oracles.expected_free_labels(n)


def test_relations_match_reference():
    # exact: the coefficients are Python ints, compared with ==
    for n in range(4, 10):
        rep = solve_leibniz_constraints(n)
        got = {r.target: dict(r.terms) for r in rep.implied_relations}
        assert all(type(c) is int for terms in got.values() for c in terms.values()), n
        assert got == oracles.expected_relations(n), n


def test_selected_relations_frozen():
    # spot values: one diagonal step flips the sign, two steps restore it
    rel5 = {r.target: dict(r.terms) for r in solve_leibniz_constraints(5).implied_relations}
    assert rel5["b23"] == {"b14": -1}
    rel8 = {r.target: dict(r.terms) for r in solve_leibniz_constraints(8).implied_relations}
    assert rel8["b25"] == {"b16": -1}
    assert rel8["b34"] == {"b16": 1}
    assert rel8["b13"] == {}
    assert rel8["b35"] == {}
    for terms in (rel5["b23"], rel8["b25"], rel8["b34"]):
        assert all(type(c) is int for c in terms.values())


def test_exact_solve_matches_svd_reference():
    # the float null-space route, rank by singular-value cutoff, agrees with
    # the exact elimination on rank and on every relation
    for n in range(4, 10):
        rep = solve_leibniz_constraints(n)
        rank, relations = oracles.svd_relations(n)
        assert rep.rank == rank, n
        assert {r.target: dict(r.terms) for r in rep.implied_relations} == relations, n


def test_row_signs_alternate():
    # the solved off-chain sign pattern + - + + ..., key for key against the
    # frozen table
    for n in range(4, 10):
        assert solve_leibniz_constraints(n).sign == oracles.FROZEN_ROW_SIGNS[n], n


def test_solver_is_cached():
    assert solve_leibniz_constraints(7) is solve_leibniz_constraints(7)


def test_solver_covers_n9():
    # the top of the solver's range, one rank past the family
    rep = solve_leibniz_constraints(9)
    assert rep.free_count == 7
    assert rep.free_labels == ("b00", "b01", "b11", "b12", "b14", "b16", "b18")
    assert rep.rank == rep.total_unknowns - 7


def test_free_count_mismatch_is_typed_at_n9(monkeypatch):
    # the free-count gate runs at every rank the solver accepts, so a wrong
    # free-pair rule is a FiliformError rather than a failed determinant
    monkeypatch.setattr(family, "free_pairs", lambda n: free_pairs(n)[:-1])
    with pytest.raises(FiliformError, match="expected 6 free coefficients"):
        solve_leibniz_constraints.__wrapped__(9)


def test_free_labels_that_do_not_parameterize_are_typed(monkeypatch):
    # b13 is forced to zero at n=6: with it in place of b12 the count of free
    # pairs is right, but no relation can express b12 through them
    def swapped(n):
        return [(1, 3) if pair == (1, 2) else pair for pair in free_pairs(n)]

    monkeypatch.setattr(family, "free_pairs", swapped)
    with pytest.raises(FiliformError, match="do not parameterize the null space"):
        solve_leibniz_constraints.__wrapped__(6)


def test_fractional_relation_coefficient_is_typed(monkeypatch):
    # with the b23 column of the residual rows doubled, b23 = -b14/2 at n=5:
    # a coefficient that is not an integer is refused, never truncated
    rows = family._residual_rows

    def doubled(n, pairs):
        return [tuple(2 * x if pair == (2, 3) else x for pair, x in zip(pairs, row)) for row in rows(n, pairs)]

    monkeypatch.setattr(family, "_residual_rows", doubled)
    with pytest.raises(FiliformError, match="relation coefficient is not an integer"):
        solve_leibniz_constraints.__wrapped__(5)


@pytest.mark.parametrize("n", [*range(4, 10), 12, 13, 14])
def test_sparse_residual_rows_match_tensor_route(n):
    # the e_n-rows read off the sparse brackets are the tensor route's
    # residual matrix rows, sign-folded and deduplicated alike, in the same
    # order; from n = 12 on, a name such as b1112 cannot be read back as its pair
    free = free_pairs(n)
    pairs = [pair for pair in family._unknowns(n) if pair not in free] + free
    rows = family._residual_rows(n, pairs)
    assert len(rows) == {4: 2, 5: 4, 6: 8, 7: 13, 8: 19, 9: 26, 12: 53, 13: 64, 14: 76}[n]
    assert rows == oracles.tensor_residual_rows(n, pairs)
    assert all(type(x) is int for row in rows for x in row)


def test_broken_skeleton_is_typed(monkeypatch):
    # the reader checks the skeleton's own residual in every component:
    # with [e_1, e_2] = e_3 the triple (0, 1, 2) leaves -e_4, off the centre
    chain = family._chain

    def broken(n):
        return chain(n) | {(1, 2): (3, 1)}

    monkeypatch.setattr(family, "_chain", broken)
    with pytest.raises(FiliformError, match="skeleton fails the Leibniz identity"):
        solve_leibniz_constraints.__wrapped__(6)


@pytest.mark.parametrize("n", range(4, 10))
def test_unit_tables_match_tensor_route(n):
    # the table directions filled from the sparse slot entries equal the
    # dense sums of unit directions over the solved relations
    skeleton, units = family._unit_tables.__wrapped__(n)
    want_skeleton, want_units = oracles.unit_tables(n)
    assert np.array_equal(skeleton, want_skeleton)
    assert units.dtype == want_units.dtype and np.array_equal(units, want_units)


def test_solver_rejects_out_of_range():
    # the solver reaches one rank past the family, with the same wording
    for n in (3, 10):
        with pytest.raises(DomainError) as err:
            solve_leibniz_constraints(n)
        assert str(err.value) == f"n must be in 4..9, got {n}"


# ---------------------------------------------------------------------------
# table building


def test_table_entries_frozen_n5():
    # p = (b00, b01, b11, b12, b) = (1, 2, 3, 4, 5), all entries by hand
    t = build_table(params_from_tuple(5, [1, 2, 3, 4, 5]))
    want = {
        (1, 0, 2): 1, (2, 0, 3): 1, (3, 0, 4): 1, (4, 0, 5): 1,
        (0, 1, 2): -1, (0, 2, 3): -1, (0, 3, 4): -1, (0, 4, 5): -1,
        (0, 0, 5): 1, (0, 1, 5): 2, (1, 1, 5): 3,
        (1, 2, 5): 4, (2, 1, 5): -4,
        (1, 4, 5): -5, (4, 1, 5): 5, (2, 3, 5): 5, (3, 2, 5): -5,
    }
    for idx, v in want.items():
        assert t.gamma[idx] == v, idx
    mask = np.ones((6, 6, 6), dtype=bool)
    for idx in want:
        mask[idx] = False
    assert np.max(np.abs(t.gamma[mask])) == 0.0


@given(st.integers(4, 8), st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_tables_satisfy_leibniz(n, seed):
    p = random_params(n, seed=seed)
    t = build_table(p)
    assert leibniz_residual(t) <= 1e-9 * t.scale()


@pytest.mark.parametrize("n", range(4, 9))
def test_build_table_matches_loop_reference(n):
    # exact agreement with the hand-derived relations, over exact zeros and
    # magnitudes 1e-100..1e100; the builder reads the solved relations and
    # never the report's row signs, so the signs are checked against it here
    sign = solve_leibniz_constraints(n).sign
    rng = np.random.default_rng(n)
    k = len(PARAM_SLOTS[n])
    for _ in range(60):
        vals = (rng.normal(size=k) + 1j * rng.normal(size=k)) * 10.0 ** rng.choice(
            [-100, -8, 0, 8, 100], size=k
        )
        vals[rng.random(k) < 0.3] = 0
        p = params_from_tuple(n, vals)
        g = build_table(p).gamma
        assert np.array_equal(g, oracles.naive_build_table(p))
        b1 = {2 * (m + 1): v for m, v in enumerate(p.b_even)}
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                if i + j != n:
                    assert g[i, j, n] == sign[i] * b1.get(i + j - 1, 0), (i, j)


def test_table_zero_params_is_antisymmetric_part_only():
    t = build_table(params_from_tuple(6, [0, 0, 0, 0, 0]))
    g = t.gamma
    assert np.max(np.abs(g + np.swapaxes(g, 0, 1))) == 0.0


def test_corrupted_row_sign_breaks_identity():
    p = random_params(6, "U_1", seed=0)
    good = build_table(p)
    g = good.gamma.copy()
    for j in (3, 5):  # row 2 must carry a minus sign; j = 4 is the top chain
        g[2, j, 6], g[j, 2, 6] = -g[2, j, 6], -g[j, 2, 6]
    bad = StructureTensor(g)
    assert leibniz_residual(good) < 1e-12
    assert leibniz_residual(bad) > 0.1 * good.scale()


def test_centrality_of_last_generator():
    for n in range(4, 9):
        g = build_table(random_params(n, seed=n)).gamma
        assert np.max(np.abs(g[n, :, :])) == 0.0
        assert np.max(np.abs(g[:, n, :])) == 0.0
