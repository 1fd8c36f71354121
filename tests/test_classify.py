"""Classification: cell membership, orbit functions, normal forms, isomorphism."""

import cmath
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from filiform_ce import (
    AdaptedTransform,
    CanonicalizationError,
    DomainError,
    act_on_params,
    adapted_matrix,
    build_table,
    canonicalize,
    change_basis,
    classify,
    isomorphic,
    orbit_invariant,
    params_from_tuple,
    random_params,
    read_params,
    representative_params,
    representatives,
    subset_of,
    warn_if_borderline,
)
from filiform_ce.classify import _ORBIT_MONOMIALS, STABILIZERS, _cell, _weight, flag_margin, nonzero_flags
from filiform_ce.subsets import PARAM_SLOTS, SUBSETS, parametric_subsets
from filiform_ce.verify import _PUBLISHED_ORBIT

import oracles


def tuple_dev(p, q):
    return max(abs(x - y) for x, y in zip(p.as_tuple(), q.as_tuple()))


# ---------------------------------------------------------------------------
# cell membership


def test_subset_frozen_examples():
    assert subset_of(params_from_tuple(4, [0, 0, 0, 1])) == "U_8"
    assert subset_of(params_from_tuple(4, [1, 2, 3, 4])) == "U_1"
    assert subset_of(params_from_tuple(4, [3, 2, 0, 5])) == "U_4"
    assert subset_of(params_from_tuple(5, [0, 1, 0, 0, 1])) == "U_2"
    assert subset_of(params_from_tuple(5, [1, 0, 1, 0, 0])) == "U_6"
    assert subset_of(params_from_tuple(8, [1, 0, 1, 0, 1, 0])) == "U_5"
    assert subset_of(params_from_tuple(8, [0, 0, 0, 0, 0, 0])) == "U_17"


@pytest.mark.parametrize("n", range(4, 9))
def test_cell_table_matches_first_match_scan(n):
    # the cell looked up by the member's options against the decision-order
    # first-match scan of the conditions; every pattern has exactly one cell
    keys = (*PARAM_SLOTS[n], "delta")
    for pattern in itertools.product((False, True), repeat=len(keys)):
        flags = dict(zip(keys, pattern))
        want = None
        for spec in SUBSETS[n]:
            if all(flags[slot] == nonzero for slot, nonzero in spec.conditions):
                want = spec
                break
        assert _cell(n, flags) is want, pattern


def test_subset_counts():
    assert {n: len(SUBSETS[n]) for n in SUBSETS} == {4: 9, 5: 13, 6: 13, 7: 17, 8: 17}
    assert {n: len(parametric_subsets(n)) for n in SUBSETS} == {
        4: 1,
        5: 2,
        6: 2,
        7: 3,
        8: 3,
    }


@given(st.integers(4, 8), st.integers(0, 10**6), st.integers(0, 2**8 - 1))
@settings(max_examples=60, deadline=None)
def test_subsets_partition_parameter_space(n, seed, mask):
    # random tuples with arbitrary slots forced to zero must land in exactly
    # one cell, and in the first cell whose conditions they satisfy
    import numpy as np

    rng = np.random.default_rng(seed)
    width = 3 + (n - 2) // 2 + (n % 2)
    values = [complex(rng.uniform(0.5, 2) * rng.choice([-1, 1])) for _ in range(width)]
    values = [0 if (mask >> i) & 1 else v for i, v in enumerate(values)]
    p = params_from_tuple(n, values)
    from filiform_ce.classify import nonzero_flags

    flags = nonzero_flags(p)
    matching = [
        s.name
        for s in SUBSETS[n]
        if all(flags[slot] == want for slot, want in s.conditions)
    ]
    assert len(matching) == 1
    assert subset_of(p) == matching[0]


def test_representatives_live_in_their_cells():
    for n in SUBSETS:
        for name, rep, parametric in representatives(n):
            assert subset_of(rep) == name


# ---------------------------------------------------------------------------
# orbit functions


def test_orbit_values_frozen():
    # worked by hand from the published formulas for each cell
    assert orbit_invariant(params_from_tuple(4, [1, 2, 3, 4])) == pytest.approx(
        (4 / 3) ** 4 * (2 * 2 - 4 * 3)
    )
    assert orbit_invariant(params_from_tuple(5, [1, 1, 2, 0, 1])) == pytest.approx(-7 / 9)
    assert orbit_invariant(params_from_tuple(8, [1, 0, 1, 0, 1, 0])) == pytest.approx(-0.25)


def test_orbit_value_none_off_parametric_cells():
    assert orbit_invariant(params_from_tuple(4, [1, 0, 0, 0])) is None
    assert orbit_invariant(params_from_tuple(6, [0, 0, 0, 0, 0])) is None


def test_orbit_value_none_on_degenerate_locus():
    # the odd-size top cells divide by 2*b11 - b01*b; exactly on that locus
    # no finite invariant exists
    thin = params_from_tuple(5, [1, 2, 1, 0, 1])
    assert subset_of(thin) == "U_1"
    assert orbit_invariant(thin) is None


def test_orbit_value_none_where_the_normal_form_value_is_zero_and_the_power_negative():
    # (8, U_5) takes 1/lam**4: a member with delta = 0 has lam = 0, and no
    # finite orbit value
    p = params_from_tuple(8, [0.8**2 / (4 * 1.3), 0.8, 1.3, 0.7, 1.1, 0])
    assert _ORBIT_MONOMIALS[8, "U_5"][1] < 0
    label = classify(p)
    assert (label.subset, label.lam) == ("U_5", 0)
    assert label.invariants.orbit_value is None
    assert orbit_invariant(p) is None


def test_orbit_value_overflow_is_domain_error():
    # lam stays finite (near 2e79), the orbit value -1024*lam**5 does not
    p = random_params(8, "U_1", seed=3)
    huge = params_from_tuple(8, [v * 1e40 for v in p.as_tuple()])
    with pytest.raises(DomainError):
        orbit_invariant(huge)
    with pytest.raises(DomainError):
        classify(huge)


@pytest.mark.parametrize("n, cell", sorted(oracles.FROZEN_ORBIT_MONOMIALS))
@pytest.mark.parametrize("scale", [1e-150, 1e-100, 1e-60, 1.0, 1e60, 1e100, 1e150])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_orbit_value_is_published_function_on_normal_form(n, cell, scale, seed):
    # the table derived from the stabilizers is the hand-written one, types
    # included, so c * lam**k gives the same floats
    c, k = oracles.FROZEN_ORBIT_MONOMIALS[n, cell]
    assert _ORBIT_MONOMIALS.keys() == oracles.FROZEN_ORBIT_MONOMIALS.keys()
    assert _ORBIT_MONOMIALS[n, cell] == (c, k)
    assert type(_ORBIT_MONOMIALS[n, cell][0]) is type(c)
    p = random_params(n, cell, seed=seed)
    member = params_from_tuple(n, [v * scale for v in p.as_tuple()])
    label = canonicalize(member)
    if math.log10(abs(c)) + k * math.log10(abs(label.lam)) > math.log10(sys.float_info.max):
        with pytest.raises(DomainError):
            classify(member)
        return
    value = classify(member).invariants.orbit_value
    want = _PUBLISHED_ORBIT[n, cell](label.representative)
    assert abs(value - want) <= 1e-9 * abs(want)
    assert value == c * label.lam**k


def test_orbit_constant_along_orbits():
    for n, cell in [(4, "U_1"), (6, "U_2"), (8, "U_9")]:
        p = random_params(n, cell, seed=17)
        v = orbit_invariant(p)
        from filiform_ce import random_transform

        t = random_transform(n, seed=18, b=p.b)
        q = act_on_params(t, p)
        assert abs(orbit_invariant(q) - v) < 1e-6 * (1 + abs(v))


# ---------------------------------------------------------------------------
# canonical forms


def test_canonical_lambda_frozen():
    # n=4, p=(1,2,3,4): invariant (b12/b11)^4 * delta = -2048/81 equals the
    # representative's value -4*lam, so lam = 512/81
    lab = canonicalize(params_from_tuple(4, [1, 2, 3, 4]))
    assert lab.subset == "U_1"
    assert lab.lam == pytest.approx(512 / 81)
    # n=5, member of the second parametric cell
    lab5 = canonicalize(params_from_tuple(5, [2, 0, 1, 1, 0]))
    assert lab5.subset == "U_5"
    assert lab5.lam == pytest.approx(2)
    # n=5 top cell: orbit value -lam
    lab51 = canonicalize(params_from_tuple(5, [1, 1, 2, 0, 1]))
    assert lab51.subset == "U_1"
    assert lab51.lam == pytest.approx(7 / 9)


def test_canonicalize_fixes_representatives():
    for n in SUBSETS:
        for name, rep, parametric in representatives(n):
            lab = canonicalize(rep)
            assert lab.subset == name
            if parametric:
                assert lab.lam == pytest.approx(1)
            achieved = act_on_params(lab.witness, rep)
            assert tuple_dev(achieved, rep) < 1e-8


def test_canonicalize_witness_lands_on_representative():
    for n in range(4, 9):
        for spec in SUBSETS[n]:
            p = random_params(n, spec.name, seed=5 * n)
            lab = canonicalize(p)
            assert lab.subset == spec.name
            achieved = act_on_params(lab.witness, p)
            want = representative_params(n, spec.name, lab.lam)
            assert tuple_dev(achieved, want) < 1e-6 * (1 + want.scale())


def test_canonicalize_thin_locus_raises():
    # the shear factor 1 + s*b vanishes: the representative is out of reach
    for n, values in [
        (5, [1, 2, 1, 0, 1]),  # U_1
        (7, [1, 2, 1, 0, 0, 1]),  # U_1
        (5, [1, 1, 0, 0, 1]),  # U_2
        (7, [1, 1, 0, 0, 0, 1]),  # U_2
    ]:
        with pytest.raises(CanonicalizationError):
            canonicalize(params_from_tuple(n, values))


@pytest.mark.parametrize(
    "n, cell, slot, ratio",
    [
        (6, "U_1", "b12", 3e5),
        (6, "U_1", "b12", 1e6),
        (8, "U_1", "b12", 1e6),
        (8, "U_1", "b14", 1e4),
        (7, "U_1", "b12", 1e6),
    ],
)
def test_canonicalize_large_cleared_slot(n, cell, slot, ratio):
    # a chain slot the shifts clear, far larger than its pivot: the shift
    # solve must leave a residual near eps * |slot|, not eps * |slot|**2 / |pivot|
    import numpy as np

    i = PARAM_SLOTS[n].index(slot)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        phases = [cmath.exp(1j * rng.uniform(0, 2 * cmath.pi)) for _ in PARAM_SLOTS[n]]
        values = [v * z for v, z in zip(random_params(n, cell, seed=seed).as_tuple(), phases)]
        values[i] = ratio * phases[i]
        p = params_from_tuple(n, values)
        lab = canonicalize(p)
        assert lab.subset == cell
        want = representative_params(n, cell, lab.lam)
        assert tuple_dev(act_on_params(lab.witness, p), want) < 1e-6 * (1 + want.scale())


# members scaled by 10**k whose witness has A0 or B_1 below 1e-12 in
# magnitude: an absolute zero test on those scale factors rejected them
SCALED_MEMBERS = {
    20: [
        (4, "U_1"), (4, "U_3"), (4, "U_8"), (5, "U_4"), (5, "U_5"), (5, "U_7"),
        (5, "U_12"), (6, "U_1"), (6, "U_2"), (6, "U_4"), (6, "U_11"), (6, "U_12"),
        (7, "U_3"), (7, "U_4"), (7, "U_5"), (7, "U_8"), (7, "U_9"), (7, "U_12"),
        (7, "U_14"), (8, "U_1"), (8, "U_2"), (8, "U_4"), (8, "U_5"), (8, "U_8"),
        (8, "U_9"), (8, "U_12"), (8, "U_14"),
    ],
    -20: [(4, "U_6"), (4, "U_7"), (5, "U_3"), (5, "U_11"), (6, "U_10"), (7, "U_16"), (8, "U_16")],
}


@pytest.mark.parametrize("k", sorted(SCALED_MEMBERS))
def test_classify_scaled_members(k):
    for n, cell in SCALED_MEMBERS[k]:
        p = random_params(n, cell, seed=1)
        p = params_from_tuple(n, [v * 10.0**k for v in p.as_tuple()])
        lab = classify(p)
        assert lab.subset == cell
        want = representative_params(n, cell, lab.lam)
        assert tuple_dev(act_on_params(lab.witness, p), want) < 1e-6 * (1 + want.scale())


def _witness_through_tensor_route(n, seed, k):
    """Relative miss of the representative when the witness of ``random_params(n, seed)``
    scaled by 10^k moves its table through ``change_basis``."""
    p = random_params(n, seed=seed)
    p = params_from_tuple(n, [v * 10.0**k for v in p.as_tuple()])
    lab = classify(p)
    moved = read_params(change_basis(build_table(p), adapted_matrix(lab.witness, p)))
    want = representative_params(n, lab.subset, lab.lam)
    return tuple_dev(moved, want) / (1 + want.scale())


@pytest.mark.parametrize("n, k", [(4, 8), (8, 8)] + [(n, -120) for n in range(4, 9)])
def test_scaled_witness_on_tensor_route(n, k):
    # the witness scales basis vectors by powers of A0; the singularity test
    # of change_basis must not read that spread of scales as a rank defect
    assert _witness_through_tensor_route(n, 3, k) < 1e-12


@pytest.mark.parametrize("n, seed, k", [(5, 11, -30), (5, 11, -120), (6, 11, -30), (7, 10, -120)])
def test_ill_conditioned_witness_on_tensor_route(n, seed, k):
    # B_1 near 10^-k against A0, A1 near 1: cond(g) reaches 1e30..1e120, but
    # only in the row and column scales, which change_basis divides out
    # before it inverts
    assert _witness_through_tensor_route(n, seed, k) < 1e-12


#: the U_1 members at 1e30 whose witnesses the scaled rank test of
#: change_basis read as singular; n = 8 seeds 4, 11 and 13 overflow in classify
WITNESSES_AT_1E30 = [(6, seed) for seed in range(3, 23)] + [
    (8, seed) for seed in range(3, 23) if seed not in (4, 11, 13)
]


def test_witness_at_1e30_on_tensor_route():
    # entries near 0.8 in the e_n row against a diagonal near 1e-30: no row
    # and column scaling removes that spread, forward substitution needs none
    for n, seed in WITNESSES_AT_1E30:
        assert _witness_through_tensor_route(n, seed, 30) < 1e-12, (n, seed)


@pytest.mark.parametrize("n, cell, top", [(6, "U_1", "b14"), (7, "U_5", "b14"), (8, "U_1", "b16")])
def test_canonical_lambda_ignores_sign_of_zero(n, cell, top):
    # the rooted quantity is a negative real here; a zero imaginary part
    # of either sign must give the same principal root, hence the same lam
    lams = set()
    for sign11 in (1.0, -1.0):
        for sign_top in (1.0, -1.0):
            values = dict.fromkeys(PARAM_SLOTS[n], 0j)
            values["b00"] = 1 + 0j
            values["b11"] = complex(2, sign11 * 0.0)
            values[top] = complex(-1, sign_top * 0.0)
            lab = canonicalize(params_from_tuple(n, [values[s] for s in PARAM_SLOTS[n]]))
            assert lab.subset == cell
            lams.add(lab.lam)
    assert len(lams) == 1


def test_torus_weights_match_action():
    # upsilon(a0, b1) multiplies each slot by a0**x * b1**y
    a0, b1 = 1.3 + 0.4j, 0.7 - 0.9j
    for n in SUBSETS:
        p = random_params(n, seed=n)
        t = AdaptedTransform(n, a0, 0, (b1,) + (0,) * (n - 3))
        moved = act_on_params(t, p).as_tuple()
        for s, (slot, before, after) in enumerate(zip(PARAM_SLOTS[n], p.as_tuple(), moved)):
            x, y = _weight(n, s)
            assert after == pytest.approx(before * a0**x * b1**y, rel=1e-12), (n, slot)


def test_torus_weights_give_stabilizers():
    # the torus elements fixing the "1" slots of a parametric representative
    # form a cyclic group of order |det|; the generator multiplies lam by
    # zeta**e, which is nontrivial exactly on the STABILIZERS cells
    nontrivial = {}
    for n in SUBSETS:
        for spec in SUBSETS[n]:
            if not spec.parametric:
                continue
            ones = [s for s, v in enumerate(spec.representative) if v == 1]
            (x1, y1), (x2, y2) = (_weight(n, s) for s in ones)
            order = abs(x1 * y2 - x2 * y1)
            # B1 = A0**(-x1*y1) keeps the first "1" slot (y1 = +-1) at 1
            x00, y00 = _weight(n, 0)  # slot b00
            e = (x00 - y00 * x1 * y1) % order
            zeta = cmath.exp(2j * cmath.pi / order)
            t = AdaptedTransform(n, zeta, 0, (zeta ** (-x1 * y1),) + (0,) * (n - 3))
            rep = representative_params(n, spec.name, 1.3)
            moved = act_on_params(t, rep)
            want = representative_params(n, spec.name, 1.3 * zeta**e)
            assert tuple_dev(moved, want) < 1e-12, (n, spec.name)
            if e:
                nontrivial[n, spec.name] = (order, e)
    assert nontrivial == STABILIZERS
    assert STABILIZERS == {(6, "U_1"): (3, 1), (7, "U_5"): (3, 2), (8, "U_1"): (5, 3)}


def test_cells_derive_from_conditions():
    # representatives and parametric flags come from the conditions alone;
    # they must reproduce the table that used to be written out cell by cell
    assert SUBSETS.keys() == oracles.FROZEN_SUBSETS.keys()
    for n, specs in SUBSETS.items():
        table = tuple((s.name, s.conditions, s.representative, s.parametric) for s in specs)
        assert table == oracles.FROZEN_SUBSETS[n], n


def test_slots_derive_from_free_labels():
    # the slot list is the solver's free-pair rule, b1{n-1} named b
    assert PARAM_SLOTS == oracles.FROZEN_PARAM_SLOTS


def test_classify_report_fields():
    lab = classify(params_from_tuple(4, [0, 0, 0, 1]))
    assert lab.subset == "U_8"
    assert lab.lam is None
    inv = lab.invariants
    assert inv.delta == 0
    # flags record which slots were treated as zero
    assert inv.flags == {
        "b00": True,
        "b01": True,
        "b11": True,
        "b12": False,
        "delta": True,
    }
    assert inv.orbit_value is None
    assert inv.canonical_lambda is None
    assert inv.flag_margin == 1.0


def test_fixed_representatives_are_their_tuples():
    # the prebuilt representative of each non-parametric cell is the
    # parameter tuple its conditions give, with complex entries
    fixed = [(n, s) for n in SUBSETS for s in SUBSETS[n] if not s.parametric]
    assert len(fixed) == 58
    for n, spec in fixed:
        rep = representative_params(n, spec.name)
        assert rep.as_tuple() == spec.representative
        assert all(type(v) is complex for v in rep.as_tuple())
        assert representative_params(n, spec.name, 2.5) == rep


@pytest.mark.parametrize("scale", [1e-30, 1.0, 1e30])
def test_witness_matches_full_action_oracle(scale):
    # canonicalize reads single slots of the action; its witness must be the
    # one every full evaluation of the closed form gives, bit for bit
    cells = [(n, s.name) for n in SUBSETS for s in SUBSETS[n]]
    assert len(cells) == 69
    for n, cell in cells:
        for seed in range(3):
            p = random_params(n, cell, seed=seed)
            member = params_from_tuple(n, [v * scale for v in p.as_tuple()])
            try:
                witness = canonicalize(member).witness
            except CanonicalizationError:
                continue  # the witness check rejects the same witness
            assert witness == oracles.full_action_witness(member), (n, cell, seed)


def test_normal_form_overflow_names_the_cell():
    # the weight monomial of this member overflows in the torus root; the
    # error is typed and names the cell
    p = random_params(4, "U_6", seed=1)
    huge = params_from_tuple(4, [v * 1e200 for v in p.as_tuple()])
    with pytest.raises(DomainError, match="cell U_6 at n=4 is beyond floating-point range"):
        canonicalize(huge)


#: a rank-4 member whose witness power A0**k underflows to 0 in the action
UNDERFLOW_MEMBER = params_from_tuple(
    4, (9.003517130628993e-223, -1.8265979065270994e-222, 0, -1.5283117206772348e-256)
)


def test_normal_form_underflow_is_typed():
    # the compiled action divides by the underflowed power: a domain error
    # naming the cell, not a bare ZeroDivisionError
    p = UNDERFLOW_MEMBER
    with pytest.raises(DomainError, match="cell U_5 at n=4 is beyond floating-point range"):
        classify(p)
    for q in (random_params(4, seed=1), params_from_tuple(4, [2 * v for v in p.as_tuple()])):
        with pytest.raises(DomainError):
            isomorphic(p, q)
        with pytest.raises(DomainError):
            isomorphic(q, p)


#: a rank-4 member whose lead slots square to below float range while its
#: discriminant rounds to the smallest subnormal
DELTA_UNDERFLOW_MEMBER = params_from_tuple(
    4, (1.4554425309821814e-162, -5.61460285904292e-163, -5.2479145329279364e-163, 1.8691333659165825)
)


def test_delta_scale_underflow_reads_as_borderline():
    # the delta test sits at the rounding floor: margin 0 and a warning,
    # not a bare ZeroDivisionError
    p = DELTA_UNDERFLOW_MEMBER
    label = classify(p)
    assert label.subset == "U_8"
    assert label.invariants.flag_margin == 0.0
    assert "margin 0.00e+00" in warn_if_borderline(p)


def _zero_test_sweep():
    """One seeded member of every cell, seeds 0-5, each slot turned by its own
    random phase and the member scaled by 10**k, k across float range; then
    the delta-underflow member, and members whose zeros, and the zero
    imaginary parts of their nonzero slots, carry a negative sign."""
    rng = np.random.default_rng(2024)
    for n in SUBSETS:
        for spec in SUBSETS[n]:
            for seed in range(6):
                values = random_params(n, spec.name, seed=seed).as_tuple()
                for k in (0, 30, -30, 160, -160, -170, 150, 300, -300, -320):
                    turns = np.exp(2j * np.pi * rng.random(len(values)))
                    yield params_from_tuple(n, [v * 10.0**k * complex(t) for v, t in zip(values, turns)])
                if seed == 0:
                    for zero in (complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
                        yield params_from_tuple(n, [complex(v.real, -0.0) if v else zero for v in values])
    yield DELTA_UNDERFLOW_MEMBER


def _bits(x: float) -> tuple:
    return x, math.copysign(1.0, x)


def test_zero_tests_match_the_frozen_flags_and_margins():
    # flags, margin and classify's report all read one pass of the zero tests
    # (``_zero_tests``); each matches the frozen flags-then-margin references
    # bit for bit, signs of zero included
    classified = 0
    for p in _zero_test_sweep():
        flags = oracles.frozen_nonzero_flags(p)
        margin = oracles.frozen_margin(p, flags)
        assert list(nonzero_flags(p).items()) == list(flags.items()), p
        assert _bits(flag_margin(p)) == _bits(margin), p
        try:
            inv = classify(p).invariants
        except (CanonicalizationError, DomainError):
            continue
        classified += 1
        assert list(inv.flags.items()) == [(name, not on) for name, on in flags.items()], p
        assert _bits(inv.flag_margin) == _bits(margin), p
    assert classified > 2000


def test_representative_params_requires_lambda():
    with pytest.raises(DomainError):
        representative_params(4, "U_1")


def test_representatives_listing():
    rows = representatives(6)
    assert len(rows) == 13
    names = [name for name, _, _ in rows]
    assert names == [s.name for s in SUBSETS[6]]
    flags = {name: parametric for name, _, parametric in rows}
    assert flags["U_1"] and flags["U_2"]
    assert sum(flags.values()) == 2


# ---------------------------------------------------------------------------
# isomorphism


def test_isomorphic_reflexive():
    p = random_params(7, "U_9", seed=2)
    ok, witness = isomorphic(p, p)
    assert ok
    assert witness.A0 == 1 and witness.A1 == 0


def test_isomorphic_within_cell():
    for n, cell in [(4, "U_3"), (5, "U_2"), (8, "U_13")]:
        p = random_params(n, cell, seed=3)
        q = random_params(n, cell, seed=4)
        ok, witness = isomorphic(p, q)
        assert ok
        assert tuple_dev(act_on_params(witness, p), q) < 1e-6 * (1 + q.scale())


def test_isomorphic_distinguishes_lambda():
    p = representative_params(4, "U_1", 1)
    q = representative_params(4, "U_1", 2)
    ok, witness = isomorphic(p, q)
    assert not ok and witness is None


def test_isomorphic_across_cells():
    p = random_params(5, "U_6", seed=0)
    q = random_params(5, "U_7", seed=0)
    ok, witness = isomorphic(p, q)
    assert not ok and witness is None


def test_isomorphic_stabilizer_roots():
    # the three cells with a finite stabilizer identify lam with zeta * lam
    for (n, cell), (order, _) in STABILIZERS.items():
        zeta = cmath.exp(2j * cmath.pi / order)
        p = representative_params(n, cell, 1.3)
        q = representative_params(n, cell, 1.3 * zeta)
        ok, witness = isomorphic(p, q)
        assert ok, (n, cell)
        assert tuple_dev(act_on_params(witness, p), q) < 1e-6
        # but a generic scale change is still refused
        ok2, _ = isomorphic(p, representative_params(n, cell, 1.3 * 1.1))
        assert not ok2


def test_isomorphic_rejects_mixed_sizes():
    with pytest.raises(DomainError):
        isomorphic(random_params(4, seed=0), random_params(5, seed=0))


# ---------------------------------------------------------------------------
# borderline warnings


def test_borderline_warning():
    assert warn_if_borderline(params_from_tuple(4, [1, 0, 1, 1])) is None
    msg = warn_if_borderline(params_from_tuple(4, [1e-8, 0, 1, 1]))
    assert msg is not None and "borderline" in msg
