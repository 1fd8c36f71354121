"""Tensor layer: brackets, the Leibniz residual, basis changes, series.

The pairwise-contraction kernels are checked against the loop-based
references in ``oracles.py`` on random inputs, up to the harness's size
d = 9, plus a handful of frozen cases.
"""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from filiform_ce import (
    AdaptedTransform,
    DomainError,
    ExtensionParams,
    SingularMatrixError,
    StructureTensor,
    adapted_matrix,
    bracket,
    build_mu,
    build_table,
    change_basis,
    from_entries,
    is_filiform,
    leibniz_residual,
    leibniz_residual_tensor,
    lower_central_series,
    random_params,
    random_transform,
    worst_leibniz_triple,
)

import oracles


def rand_tensor(rng, d, scale=1.0):
    g = rng.normal(size=(d, d, d)) + 1j * rng.normal(size=(d, d, d))
    return StructureTensor(scale * g)


# ---------------------------------------------------------------------------
# bracket


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_bracket_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 10))
    t = rand_tensor(rng, d)
    x = rng.normal(size=d) + 1j * rng.normal(size=d)
    y = rng.normal(size=d) + 1j * rng.normal(size=d)
    npt.assert_allclose(bracket(t, x, y), oracles.naive_bracket(t.gamma, x, y), atol=1e-10)


def test_bracket_is_bilinear():
    rng = np.random.default_rng(0)
    t = rand_tensor(rng, 5)
    x, y, z = (rng.normal(size=5) for _ in range(3))
    npt.assert_allclose(
        bracket(t, x + 2 * y, z), bracket(t, x, z) + 2 * bracket(t, y, z), atol=1e-10
    )


def test_from_entries_places_values():
    t = from_entries(3, {(0, 1, 2): 1.5, (1, 0, 2): -1.5})
    assert t.dim == 3
    assert t.gamma[0, 1, 2] == 1.5
    assert t.gamma[1, 0, 2] == -1.5
    assert np.count_nonzero(t.gamma) == 2


def test_from_entries_rejects_bad_index():
    with pytest.raises(DomainError):
        from_entries(3, {(0, 1, 3): 1.0})


def test_tensor_rejects_non_cubic():
    with pytest.raises(DomainError):
        StructureTensor(np.zeros((2, 3, 2)))


def test_tensor_rejects_non_finite():
    g = np.zeros((3, 3, 3))
    g[0, 1, 2] = np.inf
    with pytest.raises(DomainError):
        StructureTensor(g)


NAN, INF = float("nan"), float("inf")


def _tensor_with(v):
    g = np.zeros((3, 3, 3), dtype=complex)
    g[0, 1, 2] = v
    return StructureTensor(g)


def _basis_change_with(v):
    g = np.eye(5, dtype=complex)
    g[2, 3] = v
    return change_basis(build_mu(4), g)


# one non-finite part is enough, whichever part it is; the array path
# (tensors, matrices) and the scalar-tuple path (parameters, transforms)
@pytest.mark.parametrize("value", [complex(0, NAN), complex(-INF, 0), complex(INF, NAN)])
@pytest.mark.parametrize(
    "make",
    [
        _tensor_with,
        _basis_change_with,
        lambda v: ExtensionParams(5, 1, 0, 0, (v,), b=2),
        lambda v: AdaptedTransform(5, 1, 0, (1, 0, v)),
    ],
    ids=["StructureTensor", "change_basis", "ExtensionParams", "AdaptedTransform"],
)
def test_non_finite_parts_rejected(make, value):
    with pytest.raises(DomainError):
        make(value)


# ---------------------------------------------------------------------------
# Leibniz residual


@given(st.integers(0, 10**6))
@settings(max_examples=15, deadline=None)
def test_residual_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    t = rand_tensor(rng, 4)
    assert abs(leibniz_residual(t) - oracles.naive_residual_max(t.gamma)) < 1e-10


@pytest.mark.parametrize("d", [6, 7, 8, 9])
def test_residual_matches_loop_reference_at_harness_size(d):
    t = rand_tensor(np.random.default_rng(100 + d), d)
    assert abs(leibniz_residual(t) - oracles.naive_residual_max(t.gamma)) < 1e-10


def test_residual_zero_on_base_algebra():
    for n in range(4, 9):
        assert leibniz_residual(build_mu(n)) == 0.0


def test_residual_zero_on_family_tables():
    # the extension tables must satisfy the identity exactly as well;
    # cross-checked against the loop reference at the two smallest sizes
    for n, seed in [(4, 1), (5, 2)]:
        t = build_table(random_params(n, seed=seed))
        assert leibniz_residual(t) < 1e-12
        assert oracles.naive_residual_max(t.gamma) < 1e-12


def test_residual_tensor_shape_and_worst_triple():
    rng = np.random.default_rng(3)
    t = rand_tensor(rng, 4)
    r = leibniz_residual_tensor(t)
    assert r.shape == (4, 4, 4, 4)
    (i, j, k), value = worst_leibniz_triple(t)
    assert value == pytest.approx(leibniz_residual(t))
    assert np.max(np.abs(r[i, j, k])) == pytest.approx(value)


def test_worst_triple_flags_a_planted_violation():
    # start from a valid table and break one product
    t = build_mu(5)
    g = t.gamma.copy()
    g[1, 2, 5] = 0.25  # new product e_1*e_2 with no compensating terms
    (i, j, k), value = worst_leibniz_triple(StructureTensor(g))
    assert value > 0.2
    # the violated identity involves the broken pair in one of its slots
    assert {1, 2} & {i, j, k}


def test_residual_past_overflow_is_the_scaled_residual_scaled_back():
    # products of entries near 2**520 overflow; the residual is then taken on
    # the table scaled by a power of two, which is exact, so it is the
    # residual of the unscaled table times 2**1040, bit for bit, and its
    # triple is the same
    rng = np.random.default_rng(11)
    for n in (4, 8):
        p = random_params(n, rng=rng)
        t = change_basis(build_table(p), adapted_matrix(random_transform(n, b=p.b, rng=rng), p))
        big = StructureTensor(t.gamma * 2.0**520)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert leibniz_residual(big) == math.ldexp(leibniz_residual(t), 1040)
            triple, value = worst_leibniz_triple(t)
            assert worst_leibniz_triple(big) == (triple, math.ldexp(value, 1040))
            # a built table stays exactly closed at any magnitude
            assert leibniz_residual(StructureTensor(build_table(p).gamma * 1e160)) == 0.0


@pytest.mark.parametrize("scale", [1.0, 2.0**-600, 2.0**300, 2.0**520, 1e150])
def test_residual_is_the_worst_triple_size(scale):
    # one pass reads both: the size is the largest |residual| entry, on the
    # table itself or, past overflow, on the scaled table scaled back
    rng = np.random.default_rng(17)
    for n in (4, 6, 8):
        p = random_params(n, rng=rng)
        moved = change_basis(build_table(p), adapted_matrix(random_transform(n, b=p.b, rng=rng), p))
        for g in (rand_tensor(rng, n + 1).gamma, build_table(p).gamma, moved.gamma):
            t = StructureTensor(g * scale)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                residual = _outcome(leibniz_residual, t)
                assert residual == _outcome(lambda t: worst_leibniz_triple(t)[1], t)
            with np.errstate(over="ignore", invalid="ignore"):
                peak = float(np.abs(leibniz_residual_tensor(t)).max())
            if math.isfinite(peak):
                assert residual == (peak, math.copysign(1.0, peak))


def _outcome(f, t):
    """``f(t)`` with the sign of a zero, or the message of its DomainError."""
    try:
        x = f(t)
    except DomainError as exc:
        return str(exc)
    return x, math.copysign(1.0, x)


def test_residual_beyond_float_range_is_a_domain_error():
    t = rand_tensor(np.random.default_rng(4), 5, scale=1e300)
    with pytest.raises(DomainError, match="float range"):
        leibniz_residual(t)
    with pytest.raises(DomainError, match="float range"):
        worst_leibniz_triple(t)


# ---------------------------------------------------------------------------
# change of basis


@given(st.integers(0, 10**6))
@settings(max_examples=20, deadline=None)
def test_change_basis_matches_loop_reference(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    t = rand_tensor(rng, d)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    got = change_basis(t, g).gamma
    npt.assert_allclose(got, oracles.naive_change_basis(t.gamma, g), atol=1e-8)


def test_change_basis_matches_loop_reference_at_harness_size():
    # d = 9: an n = 8 family table moved by the adapted matrix of a transform
    p = random_params(8, seed=4)
    t = build_table(p)
    g = adapted_matrix(random_transform(8, b=p.b, rng=np.random.default_rng(5)), p)
    want = oracles.naive_change_basis(t.gamma, g)
    npt.assert_allclose(change_basis(t, g).gamma, want, rtol=0, atol=1e-12 * (1 + np.max(np.abs(want))))


def test_change_basis_identity_is_noop():
    rng = np.random.default_rng(5)
    t = rand_tensor(rng, 4)
    npt.assert_allclose(change_basis(t, np.eye(4)).gamma, t.gamma, atol=1e-14)


def test_change_basis_composes_right_to_left():
    # applying h then g must equal the single change by h @ g
    rng = np.random.default_rng(6)
    t = rand_tensor(rng, 4)
    g = rng.normal(size=(4, 4))
    h = rng.normal(size=(4, 4))
    two_step = change_basis(change_basis(t, h), g)
    one_step = change_basis(t, h @ g)
    npt.assert_allclose(two_step.gamma, one_step.gamma, atol=1e-8)


def test_change_basis_preserves_residual_zero():
    t = build_table(random_params(6, seed=9))
    rng = np.random.default_rng(10)
    g = rng.normal(size=(7, 7)) + np.eye(7)
    assert leibniz_residual(change_basis(t, g)) < 1e-9


def test_change_basis_rejects_singular_matrix():
    t = build_mu(4)
    g = np.ones((5, 5))
    with pytest.raises(SingularMatrixError):
        change_basis(t, g)
    # lower triangular, so inverted by forward substitution: a zero pivot
    g = np.tril(g)
    g[2, 2] = 0
    with pytest.raises(SingularMatrixError):
        change_basis(t, g)


@pytest.mark.parametrize("k", [100, -100])
def test_change_basis_rejects_scaled_singular_matrix(k):
    # scaling rows and columns cannot hide a rank defect, nor a zero column
    rng = np.random.default_rng(7)
    g = rng.normal(size=(5, 5))
    g[:, 4] = g[:, 0] - 2 * g[:, 1]
    scales = 10.0 ** (k * np.array([1, -1, 1, -1, 0]))
    for bad in (g * scales, (g * scales).T, np.diag(scales) @ g):
        with pytest.raises(SingularMatrixError):
            change_basis(build_mu(4), bad)
    g[:, 4] = 0
    with pytest.raises(SingularMatrixError):
        change_basis(build_mu(4), g * scales)


@pytest.mark.parametrize("k", [30, -30])
def test_change_basis_accepts_graded_diagonal(k):
    # u_i = 10^(k*i) e_i is a basis however far apart its scales are;
    # it rescales every product [u_i, u_0] = u_{i+1} by 10^-k
    g = np.diag(10.0 ** (k * np.arange(5)))
    npt.assert_allclose(change_basis(build_mu(4), g).gamma, build_mu(4).gamma * 10.0**-k, rtol=1e-14)


# ---------------------------------------------------------------------------
# lower central series / filiform test


def test_series_of_base_algebras():
    for n in range(4, 9):
        want = [n + 1] + list(range(n - 1, -1, -1))
        assert lower_central_series(build_mu(n)) == want
        assert is_filiform(build_mu(n))


def test_series_matches_reference_on_extensions():
    for n, seed in [(4, 0), (5, 3), (7, 1)]:
        t = build_table(random_params(n, seed=seed))
        got = lower_central_series(t)
        assert got == oracles.naive_series(np.asarray(t.gamma, dtype=complex))
        assert got == [n + 1] + list(range(n - 1, -1, -1))


def test_series_terminates_on_non_integer_tables():
    # regression: rounding dust from products of irrational coefficients used
    # to be ranked against its own scale, so the series never reached zero
    for n in range(4, 9):
        for seed in (11, 99):
            t = build_table(random_params(n, seed=seed))
            dims = lower_central_series(t)
            assert dims[-1] == 0
            assert dims == [n + 1] + list(range(n - 1, -1, -1))


def test_abelian_table_series():
    t = StructureTensor(np.zeros((4, 4, 4)))
    assert lower_central_series(t) == [4, 0]
    assert not is_filiform(t)


def test_non_filiform_example():
    # two-step algebra: a 5-dim table whose derived ideal is 2-dim central
    t = from_entries(5, {(0, 1, 3): 1, (1, 0, 3): -1, (0, 2, 4): 1, (2, 0, 4): -1})
    assert lower_central_series(t) == [5, 2, 0]
    assert not is_filiform(t)
