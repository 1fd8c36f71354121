"""Adapted transforms and their action on the coefficient tuples.

The closed form, with every even row derived from one coefficient-sum rule,
is the fast route; the slow route pushes the full structure tensor through
a change of basis and reads the coefficients back off.  Both must agree
everywhere, which is the content of most tests here.  The references that
only the verification harness uses (the direct double sum, the unreduced
generator matrices, the tail test, the naive factors) live in
``filiform_ce.verify`` and are tested here through its private helpers.
"""

import copy
import dataclasses
import math
import pickle
import traceback

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from filiform_ce import (
    AdaptedTransform,
    DegenerateTransformError,
    DomainError,
    TableShapeError,
    act_on_params,
    adapted_matrix,
    build_mu,
    build_table,
    change_basis,
    compose,
    elementary_factors,
    elementary_to_adapted,
    from_entries,
    identity_transform,
    inverse_transform,
    isomorphic,
    params_from_tuple,
    random_params,
    random_transform,
    read_params,
    sigma,
    tau,
    transform_from_matrix,
    upsilon,
)
from filiform_ce.action import ElementaryTransform, _compiled, _require_nondegenerate, _sum_terms
from filiform_ce.classify import _PLANS
from filiform_ce.subsets import PARAM_SLOTS
from filiform_ce.verify import _coefficient_sum, _naive_factors, _tail_generators, _tail_trivial

import oracles


def tuple_dev(p, q):
    return max(abs(x - y) for x, y in zip(p.as_tuple(), q.as_tuple()))


# ---------------------------------------------------------------------------
# transform objects


def test_transform_validation():
    with pytest.raises(DomainError):
        AdaptedTransform(4, 1, 0, (1,))  # B too short
    with pytest.raises(DomainError):
        AdaptedTransform(3, 1, 0, (1,))
    with pytest.raises(DomainError):
        AdaptedTransform(4, float("inf"), 0, (1, 0))


def test_transform_is_slotted_and_frozen():
    t = AdaptedTransform(4, 2, -0.5, (1, 1j))
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.A0 = 1
    assert not hasattr(t, "__dict__")


def test_transform_repr_frozen():
    # recorded before the class was slotted
    assert repr(AdaptedTransform(4, 2, -0.5, (1, 1j))) == (
        "AdaptedTransform(n=4, A0=(2+0j), A1=(-0.5+0j), B=((1+0j), 1j))"
    )
    assert repr(identity_transform(5)) == "AdaptedTransform(n=5, A0=(1+0j), A1=0j, B=((1+0j), 0j, 0j))"


def test_transform_equality_hash_replace_copy_pickle():
    t = AdaptedTransform(4, 2, -0.5, (1, 1j))
    u = AdaptedTransform(4, 2.0, -0.5 + 0j, [1.0, 1j])
    assert t == u and hash(t) == hash(u)
    assert t != AdaptedTransform(4, 2, 0.5, (1, 1j))
    with pytest.raises(DomainError, match="transform coefficients must be finite"):
        dataclasses.replace(t, A0=float("inf"))
    assert dataclasses.replace(t, B=[3, 4]).B == (3 + 0j, 4 + 0j)
    for v in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert v == t


# random_transform(n, seed=42), recorded while the sign draw still used
# Generator.choice: A0, A1, then B_1..B_{n-2}, which every rank reads as a
# prefix of one stream; all real, with imaginary parts +0.0.
TRANSFORM_SEED_42 = {
    "A0": "0x1.a932f9b3a245bp+0",
    "A1": "0x1.6f344b09bb684p+0",
    "B": (
        "-0x1.8bca11152100dp+0",
        "-0x1.9f8ff92b31b20p+0",
        "0x1.e7098bb61b1d4p+0",
        "0x1.0b6834bef1690p+0",
        "0x1.24ee0a8edeb24p+0",
        "-0x1.7ccfc7a5f274cp+0",
    ),
}


def test_random_transform_stream_frozen():
    for n in range(4, 9):
        t = random_transform(n, seed=42)
        assert t.A0.real.hex() == TRANSFORM_SEED_42["A0"], n
        assert t.A1.real.hex() == TRANSFORM_SEED_42["A1"], n
        assert [z.real.hex() for z in t.B] == list(TRANSFORM_SEED_42["B"][: n - 2]), n
        assert all(z.imag.hex() == "0x0.0p+0" for z in (t.A0, t.A1, *t.B)), n


def test_identity_transform():
    t = identity_transform(5)
    assert t.A0 == 1 and t.A1 == 0
    assert t.B == (1,) + (0,) * (5 - 3)
    p = random_params(5, seed=8)
    assert tuple_dev(act_on_params(t, p), p) == 0


def test_degenerate_transforms_rejected():
    p = random_params(4, seed=0)
    with pytest.raises(DegenerateTransformError):
        act_on_params(AdaptedTransform(4, 0, 1, (1, 0)), p)
    with pytest.raises(DegenerateTransformError):
        act_on_params(AdaptedTransform(4, 1, 0, (0, 1)), p)


def test_rank_mismatch_is_domain_error():
    with pytest.raises(DomainError, match="transform has n=5 but parameters have n=4"):
        act_on_params(random_transform(5, seed=1), random_params(4, seed=1))


def test_action_overflow_is_domain_error():
    # A0**(n-2) = 1e360 leaves float range, where ``**`` raises OverflowError
    t = AdaptedTransform(8, 1e60, 0, (1, 0, 0, 0, 0, 0))
    with pytest.raises(DomainError, match="overflows"):
        act_on_params(t, random_params(8, seed=1))


def test_action_underflow_is_domain_error():
    # A0**(n-2) = 1e-1200 underflows to 0 in a denominator: ZeroDivisionError
    t = AdaptedTransform(8, 1e-200, 0, (1, 0, 0, 0, 0, 0))
    with pytest.raises(DomainError, match="the action at n=8 underflows floating-point range"):
        act_on_params(t, random_params(8, seed=1))


def test_shear_degeneracy_rejected():
    # A0 + b * A1 = 0 collapses the chain even though A0, B1 are fine
    p = params_from_tuple(5, [1, 0, 1, 0, 1])  # b = 1
    bad, ident = AdaptedTransform(5, 1, -1, (1, 0, 0)), identity_transform(5)
    for call in (
        lambda: act_on_params(bad, p),
        lambda: compose(bad, ident, p),
        lambda: compose(ident, bad, p),  # bad at ident . p = p
        lambda: inverse_transform(bad, p),
    ):
        with pytest.raises(DegenerateTransformError):
            call()


def _degeneracy(t, p):
    try:
        _require_nondegenerate(t, p)
    except DegenerateTransformError as exc:
        return str(exc)
    return None


def test_shear_cancellation_threshold():
    # b = 1, so the shear is A0 + A1 = 1 + A1 against 1e-12 * max(|A0|, |A1*b|);
    # both outcomes as recorded before the tests stopped at the first that fires
    p = params_from_tuple(5, [1, 1, 1, 1, 1.0])
    inside = AdaptedTransform(5, 1.0, -1.0 + 5e-13, (1, 1, 1))
    outside = AdaptedTransform(5, 1.0, -1.0 + 2e-12, (1, 1, 1))
    assert _degeneracy(inside, p) == "adapted transform is degenerate: A0 + A1*b vanishes"
    assert _degeneracy(outside, p) is None


def test_overflowing_shear_is_degenerate():
    # A1*b = 1e400 is inf: the cancellation test compares inf <= inf
    p = params_from_tuple(5, [1, 1, 1, 1, 1e200])
    t = AdaptedTransform(5, 1.0, 1e200, (1, 1, 1))
    assert _degeneracy(t, p) == "adapted transform is degenerate: A0 + A1*b vanishes"
    with pytest.raises(DegenerateTransformError):
        act_on_params(t, p)


def test_zero_scale_factor_names_itself():
    p = params_from_tuple(5, [1, 1, 1, 1, 1.0])
    assert _degeneracy(AdaptedTransform(5, 0, 1, (1, 1, 1)), p) == "adapted transform is degenerate: A0 vanishes"
    assert _degeneracy(AdaptedTransform(5, 1, 1, (0, 1, 1)), p) == "adapted transform is degenerate: B_1 vanishes"
    # A0 is tested first; the shear, here also zero, is then never formed
    assert _degeneracy(AdaptedTransform(5, 0, 0, (0, 1, 1)), p) == "adapted transform is degenerate: A0 vanishes"


def test_zero_a0_is_reported_before_the_shear_is_formed():
    # |A1*b| = |1.5e308 * (1+1j)| leaves float range, where ``abs`` raises
    # OverflowError; a zero A0 is degenerate whatever the shear
    p = params_from_tuple(5, [1, 1, 1, 1, 1 + 1j])
    assert _degeneracy(AdaptedTransform(5, 0, 1.5e308, (1, 1, 1)), p) == (
        "adapted transform is degenerate: A0 vanishes"
    )


def test_overflowing_shear_magnitude_is_domain_error():
    # |A0 + A1*b| of the finite A0 = 1.5e308(1+1j) leaves float range, where
    # ``abs`` raises OverflowError: every caller of the degeneracy test
    # gives a typed error instead
    p = random_params(5, seed=1)
    wild, ident = AdaptedTransform(5, 1.5e308 + 1.5e308j, 0, (1, 0, 0)), identity_transform(5)
    for call in (
        lambda: act_on_params(wild, p),
        lambda: adapted_matrix(wild, p),
        lambda: compose(wild, ident, p),
        lambda: compose(ident, wild, p),
        lambda: inverse_transform(wild, p),
    ):
        with pytest.raises(DomainError, match=r"\|A0 \+ A1\*b\| overflows"):
            call()


# ---------------------------------------------------------------------------
# matrix form


def test_adapted_matrix_frozen_example():
    # zero parameters, A0 = 1, B = (1, 1): each basis image picks up the
    # next chain vector, computed by hand
    m = adapted_matrix(AdaptedTransform(4, 1, 0, (1, 1)), params_from_tuple(4, [0, 0, 0, 0]))
    want = np.array(
        [
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 1, 1, 0, 0],
            [0, 0, 1, 1, 0],
            [0, 0, 0, 1, 1],
        ],
        dtype=float,
    )
    npt.assert_allclose(m, want, atol=1e-14)


def test_adapted_matrix_first_column_is_shear():
    p = random_params(6, seed=1)
    t = random_transform(6, seed=2, b=p.b)
    m = adapted_matrix(t, p)
    npt.assert_allclose(m[:, 0], [t.A0, t.A1] + [0] * 5, atol=1e-12)


def test_matrix_columns_follow_bracket_recursion():
    # column k+1 must be the product of column k with column 0
    from filiform_ce import bracket

    p = random_params(7, seed=3)
    t = random_transform(7, seed=4, b=p.b)
    m = adapted_matrix(t, p)
    tab = build_table(p)
    for k in range(1, 7):
        npt.assert_allclose(bracket(tab, m[:, k], m[:, 0]), m[:, k + 1], atol=1e-9)


@pytest.mark.parametrize("n", range(4, 9))
def test_matrix_columns_are_brackets_exactly(n):
    # adapted_matrix inlines bracket; the inlined products must round the same
    from filiform_ce import bracket

    for seed in range(10):
        base = random_params(n, seed=seed)
        for k in (0, 30, -30):
            p = params_from_tuple(n, [v * 10.0**k for v in base.as_tuple()])
            t = random_transform(n, seed=seed + 40, b=p.b)
            m = adapted_matrix(t, p)
            tab = build_table(p)
            for i in range(1, n):
                assert np.array_equal(m[:, i + 1], bracket(tab, m[:, i], m[:, 0])), (seed, k, i)


@given(st.integers(4, 8), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_matrix_roundtrip(n, seed):
    p = random_params(n, seed=seed)
    t = random_transform(n, seed=seed + 1, b=p.b)
    back = transform_from_matrix(adapted_matrix(t, p), n)
    assert abs(back.A0 - t.A0) < 1e-9
    assert abs(back.A1 - t.A1) < 1e-9
    assert max(abs(x - y) for x, y in zip(back.B, t.B)) < 1e-9


# ---------------------------------------------------------------------------
# action: closed forms against the tensor route


@given(st.integers(4, 8), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_action_agrees_with_tensor_route(n, seed):
    p = random_params(n, seed=seed)
    t = random_transform(n, seed=seed + 7, b=p.b)
    fast = act_on_params(t, p)
    slow = read_params(change_basis(build_table(p), adapted_matrix(t, p)))
    assert tuple_dev(fast, slow) < 1e-8 * (1 + p.scale())


def test_action_agrees_with_loop_reference():
    # drive the slow route through the pure-loop basis change as well
    p = random_params(5, seed=21)
    t = random_transform(5, seed=22, b=p.b)
    fast = act_on_params(t, p)
    g = oracles.naive_change_basis(
        np.asarray(build_table(p).gamma, dtype=complex), adapted_matrix(t, p)
    )
    from filiform_ce import StructureTensor

    slow = read_params(StructureTensor(g))
    assert tuple_dev(fast, slow) < 1e-8


def test_action_frozen_diagonal_case():
    # scaling: A0 = 2, B1 = 3 sends b11 to 3 / 2**3 at n = 4 (worked by hand)
    q = act_on_params(AdaptedTransform(4, 2, 0, (3, 0)), params_from_tuple(4, [0, 0, 1, 0]))
    assert q.b11 == pytest.approx(0.375)
    assert q.b00 == q.b01 == 0
    assert q.b12 == 0


def scaled(p, k):
    return params_from_tuple(p.n, [v * 10.0**k for v in p.as_tuple()])


def test_action_is_functorial():
    for k in (0, 30, -30):
        p = scaled(random_params(6, seed=30), k)
        t1 = random_transform(6, seed=31, b=p.b)
        q1 = act_on_params(t1, p)
        t2 = random_transform(6, seed=32, b=q1.b)
        two_step = act_on_params(t2, q1)
        combined = act_on_params(compose(t1, t2, p), p)
        assert tuple_dev(two_step, combined) < 1e-8 * two_step.scale(), k


def test_inverse_transform_roundtrip():
    for n in range(4, 9):
        for k in (0, 30, -30):
            p = scaled(random_params(n, seed=n), k)
            t = random_transform(n, seed=n + 50, b=p.b)
            q = act_on_params(t, p)
            if n % 2 and k == 30:
                # b ~ 1e30 puts q within rounding of the inverse's degenerate
                # locus: its shear at q is 1/(A0 + A1*b), far below eps of its terms
                with pytest.raises(DegenerateTransformError):
                    act_on_params(inverse_transform(t, p), q)
                continue
            back = act_on_params(inverse_transform(t, p), q)
            assert tuple_dev(back, p) < 1e-8 * p.scale(), (n, k)


def transform_dev(s, t):
    """Largest coefficient difference of two transforms, relative to the larger."""
    a, b = np.array([s.A0, s.A1, *s.B]), np.array([t.A0, t.A1, *t.B])
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b))))


@pytest.mark.parametrize("n", range(4, 9))
def test_group_law_matches_matrix_route(n):
    # compose and inverse_transform against the product and the dense inverse
    # of the full basis-change matrices
    for seed in range(40):
        p = scaled(random_params(n, seed=seed), (0, 8, -8, 30, -30)[seed % 5])
        rng = np.random.default_rng(seed + 500)
        t = random_transform(n, b=p.b, rng=rng)
        s = random_transform(n, b=act_on_params(t, p).b, rng=rng)
        assert transform_dev(compose(t, s, p), oracles.matrix_compose(t, s, p)) < 1e-10, seed
        assert transform_dev(inverse_transform(t, p), oracles.matrix_inverse(t, p)) < 1e-10, seed


def test_group_law_never_reads_the_table(monkeypatch):
    # the action reads its coefficient sums off the solved relations; nothing
    # in the group law may build a table or a dense inverse
    import filiform_ce.action as action

    p, q = random_params(7, seed=3), random_params(7, "U_5", seed=4)
    t = random_transform(7, seed=5, b=p.b)
    s = random_transform(7, seed=6, b=act_on_params(t, p).b)
    image = act_on_params(t, q)

    def forbidden(*args, **kwargs):
        raise AssertionError("the group law built a table or a dense inverse")

    for name in ("build_table", "adapted_matrix"):
        monkeypatch.setattr(action, name, forbidden)
    monkeypatch.setattr(np.linalg, "inv", forbidden)
    compose(t, s, p)
    inverse_transform(t, p)
    assert isomorphic(q, image)[0]


def test_derived_rule_matches_rank7_closed_forms():
    # the rank-7 even rows as the paper prints them
    for seed in range(20):
        p = random_params(7, seed=seed)
        t = random_transform(7, seed=seed + 100, b=p.b)
        b1, b2, b3, b4, b5 = t.B
        shear = t.A0 + t.A1 * p.b
        e12 = (
            b1 * b1 * p.b12
            + (2 * b1 * b3 - b2 * b2) * p.b14
            + (2 * b2 * b4 - 2 * b1 * b5 - b3 * b3) * p.b
        ) / (t.A0**4 * b1 * shear)
        e14 = (b1 * b1 * p.b14 + (b2 * b2 - 2 * b1 * b3) * p.b) / (t.A0**2 * b1 * shear)
        got = _compiled(7)(t.A0, t.A1, t.B, p.as_tuple())
        assert abs(got[3] - e12) <= 1e-12 * (1 + abs(e12))
        assert abs(got[4] - e14) <= 1e-12 * (1 + abs(e14))


def test_single_slot_is_bit_identical_to_full_action():
    # canonicalize reads the torus "1" slots and the cleared chain slots one
    # at a time; each must be the same float as in the full closed form
    for n in range(4, 9):
        act, slots = _compiled(n), [_compiled(n, (i,)) for i in range(len(PARAM_SLOTS[n]))]
        for seed in range(10):
            p = random_params(n, seed=seed)
            t = random_transform(n, seed=seed + 200, b=p.b)
            for scale in (1.0, 1e-30, 1e30, 10.0 ** (30 * (seed - 5))):
                v = tuple(x * scale for x in p.as_tuple())
                full = act(t.A0, t.A1, t.B, v)
                for i in range(len(v)):
                    assert slots[i](t.A0, t.A1, t.B, v) == (full[i],)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the exception type is part of the result
        return type(exc)


def _same_float(x, y) -> bool:
    """Bit for bit on complex values: signs of zeros count, nan matches nan."""
    if isinstance(x, type) or isinstance(y, type):
        return x is y
    if isinstance(x, tuple) or isinstance(y, tuple):
        return type(x) is type(y) and len(x) == len(y) and all(map(_same_float, x, y))
    return all(
        math.copysign(1, a) == math.copysign(1, b) and (a == b or a != a and b != b)
        for a, b in ((x.real, y.real), (x.imag, y.imag))
    )


def _oracle_inputs(n):
    """Transforms and tuples from 1e-300 to 1e300, including A0 whose powers
    overflow or underflow, B whose products do, B_1 = 0 and the torus's
    sheared read (A0 = 1)."""
    for seed in range(2):
        p = random_params(n, seed=seed)
        t = random_transform(n, seed=seed + 300, b=p.b)
        for e in (-300, -150, -20, 0, 20, 150, 300):
            v = tuple(x * 10.0**e for x in p.as_tuple())
            for a0 in (t.A0, t.A0 * 1e-80, t.A0 * 1e60):
                yield a0, t.A1, t.B, v
            for scale in (1e-170, 1e154):  # products of two B_k under- and overflow
                yield t.A0, t.A1, tuple(x * scale for x in t.B), v
            yield t.A0, t.A1, (0j,) + t.B[1:], v
            yield 1, t.A1 * 10.0**e, (1 + 0j,) + (0j,) * (n - 3), v


@pytest.mark.parametrize("n", range(4, 10))
def test_sum_terms_match_table_route(n):
    # the coefficient sums built from the relations are the ones read off the
    # tables of unit parameter tuples: same terms, same order, float coefficients
    assert repr(_sum_terms(n)) == repr(oracles.table_sum_terms(n))
    assert all(type(c) is float for _, terms in _sum_terms(n) for _, poly in terms for c, _, _ in poly)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_compiled_action_is_the_loop_bit_for_bit(n):
    # the generated code against the loop evaluator, oracles.loop_act_slot:
    # the whole action, each slot and each torus read, values and exceptions
    reads = [(i,) for i in range(len(PARAM_SLOTS[n]))]
    reads += [plan.ones for (rank, _), plan in _PLANS.items() if rank == n]
    for args in _oracle_inputs(n):
        assert _same_float(_outcome(_compiled(n), *args), _outcome(oracles.loop_act, n, *args)), args
        want = [_outcome(oracles.loop_act_slot, n, *args, i) for i in range(len(PARAM_SLOTS[n]))]
        for slots in reads:
            raised = [want[i] for i in slots if isinstance(want[i], type)]
            expected = raised[0] if raised else tuple(want[i] for i in slots)
            assert _same_float(_outcome(_compiled(n, slots), *args), expected), (slots, args)


def test_oracle_inputs_reach_every_outcome():
    # the inputs above raise both errors the loop can raise, and give zeros of both signs
    outcomes = {
        _outcome(oracles.loop_act, n, *args) for n in range(4, 9) for args in _oracle_inputs(n)
    }
    assert {OverflowError, ZeroDivisionError} <= outcomes
    values = [z for o in outcomes if isinstance(o, tuple) for z in o]
    assert {math.copysign(1, z.imag) for z in values if z.imag == 0} == {-1.0, 1.0}


def test_generated_source_shows_in_tracebacks():
    # the compiled action keeps its source in linecache: the overflowing line shows
    t = AdaptedTransform(8, 1e60, 0, (1, 0, 0, 0, 0, 0))
    with pytest.raises(DomainError) as err:
        act_on_params(t, random_params(8, seed=1))
    frame = traceback.extract_tb(err.value.__cause__.__traceback__)[-1]
    assert (frame.filename, frame.line) == ("<action n=8>", "nn = a0 ** 6 * shear")
    assert '"<action n=8>"' in "".join(traceback.format_exception(err.value.__cause__))


# ---------------------------------------------------------------------------
# general coefficient-sum action


def test_coefficient_sum_matches_closed_forms():
    for n in range(4, 9):
        p = random_params(n, seed=n + 10)
        t = random_transform(n, seed=n + 60, b=p.b)
        got = _coefficient_sum(t, p)
        want = act_on_params(t, p)
        assert tuple_dev(got, want) < 1e-8


def test_coefficient_sum_narrow_variant_deviates():
    # restricting the summation ranges looks plausible but loses the
    # top-chain contributions for odd sizes
    p = random_params(7, seed=70)
    t = random_transform(7, seed=71, b=p.b)
    want = act_on_params(t, p)
    narrow = _coefficient_sum(t, p, narrow=True)
    assert tuple_dev(narrow, want) > 1e-4


# ---------------------------------------------------------------------------
# elementary factors


def test_elementary_constructors_validate():
    with pytest.raises(DomainError):
        sigma(1.0, 1)  # k starts at 2
    with pytest.raises(DomainError):
        tau(1.0, 0)
    with pytest.raises(DomainError):
        upsilon(0, 1)  # zero scale is not invertible


def test_factors_multiply_back(subtests=None):
    for n in range(4, 9):
        p = random_params(n, seed=n + 20)
        t = random_transform(n, seed=n + 80, b=p.b)
        factors = elementary_factors(t)
        q = p
        for f in factors:
            q = act_on_params(elementary_to_adapted(f, n), q)
        assert tuple_dev(q, act_on_params(t, p)) < 1e-8, n


@pytest.mark.parametrize("n", range(4, 9))
def test_factors_match_the_array_route_bit_for_bit(n):
    # the shift coefficients, signed zeros included, at unit and extreme scales
    for seed in range(20):
        t = random_transform(n, seed=seed + 400)
        for scale in (1.0, 1e-100, 1e100):
            s = AdaptedTransform(n, t.A0 * scale, t.A1, tuple(b * scale for b in t.B))
            factors = elementary_factors(s)
            assert [f.kind for f in factors] == ["tau"] + ["sigma"] * (n - 3) + ["upsilon"]
            got = tuple(f.a for f in factors[1:-1])
            assert _same_float(got, tuple(oracles.array_shift_coefficients(s))), (seed, scale)


def test_factor_order_shear_first_scale_last():
    t = random_transform(6, seed=90)
    factors = elementary_factors(t)
    assert factors[0].kind == "tau"
    assert factors[-1].kind == "upsilon"
    assert all(f.kind == "sigma" for f in factors[1:-1])


@pytest.mark.parametrize("n", range(4, 9))
def test_tail_generators_reduce_to_identity(n):
    # tau past e_1 and sigma into e_{n-1}, e_n act trivially; an index past
    # e_n or an unknown kind is refused
    tails = [tau(0.7, k) for k in range(2, n + 1)] + [sigma(0.7, k) for k in (n - 1, n)]
    for e in tails:
        assert elementary_to_adapted(e, n) == identity_transform(n), e
    for e in (sigma(0.7, n + 1), tau(0.7, n + 1), ElementaryTransform("phi", a=1, k=1)):
        with pytest.raises(DomainError):
            elementary_to_adapted(e, n)


def test_uncorrected_factors_fail_at_larger_sizes():
    # reading the shift coefficients off the matrix columns naively ignores
    # that earlier factors already moved the columns; visible from n = 7 up
    p = random_params(7, seed=91)
    t = random_transform(7, seed=92, b=p.b)
    q = p
    for f in _naive_factors(t):
        q = act_on_params(elementary_to_adapted(f, 7), q)
    assert tuple_dev(q, act_on_params(t, p)) > 1e-3


def test_tail_triviality():
    for n in range(4, 9):
        assert _tail_trivial(random_params(n, seed=0), _tail_generators(n, np.random.default_rng(0)))


def test_tail_triviality_control():
    # tau at k = 1 genuinely moves the parameters, so the check must refuse it
    assert not _tail_trivial(random_params(5, seed=0), [tau(1.0, 1)])


# ---------------------------------------------------------------------------
# reading coefficients off a tensor


@given(st.integers(4, 8), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_read_params_roundtrip(n, seed):
    p = random_params(n, seed=seed)
    assert tuple_dev(read_params(build_table(p)), p) < 1e-10


def test_read_params_rejects_off_family_entries():
    g = build_table(random_params(6, seed=5)).gamma.copy()
    g[2, 2, 6] = 0.5  # diagonal pair entries never occur in the family
    from filiform_ce import StructureTensor

    with pytest.raises(TableShapeError) as err:
        read_params(StructureTensor(g))
    assert "(2, 2, 6)" in str(err.value)


def test_read_params_rejects_wrong_dimension():
    with pytest.raises(DomainError):
        read_params(from_entries(3, {}))


def test_read_params_on_base_algebra():
    # mu itself is the zero tuple except for the skeleton, but it is missing
    # the antisymmetric back-chain, so reading must reject it
    with pytest.raises(TableShapeError):
        read_params(build_mu(5))
