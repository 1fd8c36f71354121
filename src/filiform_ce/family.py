"""The graded filiform algebras and their one-dimensional central extensions.

``build_mu(n)`` returns the (n+1)-dimensional graded filiform Lie algebra
with the single nonzero product family [e_i, e_0] = e_{i+1}.  Appending a
central direction e_n and letting the brackets [e_i, e_j] (i, j < n) pick up
e_n-components subject to the Leibniz identity yields a family of
non-Lie Leibniz algebras.  ``solve_leibniz_constraints`` derives, by plain
linear algebra on the identity's residual, which e_n-components are free;
``ExtensionParams`` holds exactly those free coordinates and
``build_table`` expands them into a full structure tensor: the chain
skeleton plus each coordinate times its direction read off the solved
relations, so the forced coefficients and their signs are never written
out by hand.

Parameter naming: ``bIJ`` is the e_n-coefficient of [e_I, e_J].  After
reduction the free ones are b00, b01, b11, the even-index row
b12, b14, ... b1{n-2}, and (odd n only) one top coefficient ``b`` with
[e_i, e_{n-i}] = (-1)^i * b * e_n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FiliformError
# N_RANGE is defined in subsets; callers import it from here
from .subsets import N_RANGE, PARAM_SLOTS, SUBSETS, check_rank, free_labels, get_spec
from .tensor import StructureTensor, leibniz_residual_tensor
from .tolerance import RANK_RTOL, require_finite


def build_mu(n: int) -> StructureTensor:
    """Structure tensor of the graded filiform Lie algebra of dimension n+1.

    Basis e_0..e_n; the only nonzero products are [e_i, e_0] = e_{i+1}
    for 1 <= i <= n-1.
    """
    if n < 2:
        raise DomainError(f"graded filiform algebra needs n >= 2, got {n}")
    d = n + 1
    gamma = np.zeros((d, d, d), dtype=complex)
    for i in range(1, n):
        gamma[i, 0, i + 1] = 1.0
    return StructureTensor(gamma)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class ExtensionParams:
    """Free coordinates of a central extension of ``build_mu(n)``.

    ``b_even`` lists b12, b14, ... (length (n-2)//2); ``b`` is the top
    coefficient, present only for odd n (forced to exactly 0 otherwise).
    """

    n: int
    b00: complex
    b01: complex
    b11: complex
    b_even: tuple[complex, ...]
    b: complex = 0

    def __post_init__(self):
        n = self.n
        check_rank(n)
        want = (n - 2) // 2
        if len(self.b_even) != want:
            raise DomainError(
                f"b_even must have length {want} for n={n}, got {len(self.b_even)}"
            )
        b_even = tuple(map(complex, self.b_even))
        b00, b01, b11, b = map(complex, (self.b00, self.b01, self.b11, self.b))
        values = (b00, b01, b11, *b_even, b)
        require_finite(values, "extension parameters")
        if n % 2 == 0 and b != 0:
            raise DomainError(f"b must be 0 for even n, got {b!r}")
        # built once: a classification reads the tuple a few dozen times
        object.__setattr__(self, "_values", values if n % 2 else values[:-1])
        object.__setattr__(self, "b00", b00)
        object.__setattr__(self, "b01", b01)
        object.__setattr__(self, "b11", b11)
        object.__setattr__(self, "b_even", b_even)
        object.__setattr__(self, "b", b)

    @property
    def b12(self) -> complex:
        return self.b_even[0]

    @property
    def b14(self) -> complex:
        return self.b_even[1] if len(self.b_even) > 1 else 0j

    @property
    def b16(self) -> complex:
        return self.b_even[2] if len(self.b_even) > 2 else 0j

    def as_tuple(self) -> tuple[complex, ...]:
        """(b00, b01, b11, *b_even) plus a trailing b for odd n."""
        return self._values

    @property
    def delta(self) -> complex:
        """Discriminant b01^2 - 4*b00*b11 of the leading 2x2 block."""
        return self.b01 * self.b01 - 4 * self.b00 * self.b11

    def scale(self) -> float:
        m = max(map(abs, self.as_tuple()))
        return m if m > 0 else 1.0


def params_from_tuple(n: int, values) -> ExtensionParams:
    """Inverse of :meth:`ExtensionParams.as_tuple`."""
    check_rank(n)
    values = tuple(values)
    want = len(PARAM_SLOTS[n])
    if len(values) != want:
        raise DomainError(
            f"expected {want} parameters for n={n}, got {len(values)}"
        )
    b00, b01, b11 = values[:3]
    if n % 2 == 1:
        return ExtensionParams(n, b00, b01, b11, values[3:-1], values[-1])
    return ExtensionParams(n, b00, b01, b11, values[3:], 0)


# ---------------------------------------------------------------------------
# constraint solver

_GENERIC_LABELS = ("b00", "b01", "b11")


def _unknown_labels(n: int) -> list[str]:
    labels = list(_GENERIC_LABELS)
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            labels.append(f"b{i}{j}")
    return labels


def _direction(n: int, label: str) -> np.ndarray:
    """Unit tensor direction for one unknown e_n-coefficient."""
    d = n + 1
    g = np.zeros((d, d, d))
    if label == "b00":
        g[0, 0, n] = 1.0
    elif label == "b01":
        g[0, 1, n] = 1.0
    elif label == "b11":
        g[1, 1, n] = 1.0
    else:
        i, j = int(label[1]), int(label[2:])
        g[i, j, n] = 1.0
        g[j, i, n] = -1.0
    return g


def _skeleton(n: int) -> np.ndarray:
    d = n + 1
    g = np.zeros((d, d, d))
    for i in range(1, n):
        g[i, 0, i + 1] = 1.0
        g[0, i, i + 1] = -1.0
    return g


@dataclass(frozen=True)
class Relation:
    """One derived equality: target = sum of coeff * source terms.

    Empty ``terms`` means the coefficient is forced to vanish.
    """

    target: str
    terms: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class ConstraintReport:
    n: int
    total_unknowns: int
    rank: int
    free_count: int
    free_labels: tuple[str, ...]
    implied_relations: tuple[Relation, ...] = field(repr=False)
    #: row sign s(i) of the solved tables: gamma[i, j, n] = s(i) * b_{1, i+j-1}
    #: off the top chain (a description; ``build_table`` reads the relations)
    sign: dict = field(repr=False, default_factory=dict)


@functools.lru_cache(maxsize=None, typed=True)  # typed: 4.0 is no cache hit for 4
def solve_leibniz_constraints(n: int) -> ConstraintReport:
    """Reduce the e_n-coefficients of a central extension by the Leibniz identity.

    The residual of the identity is affine in the unknown coefficients
    (they only feed the central direction), so the admissible set is the
    null space of a single matrix whose columns are the residual tensors of
    the individual coefficient directions.  Free coordinates, forced zeros
    and proportionality relations are read off that null space.
    """
    check_rank(n, top=N_RANGE.stop)  # one rank past the family
    labels = _unknown_labels(n)
    t0 = _skeleton(n)
    r0 = leibniz_residual_tensor(StructureTensor(t0.astype(complex)))
    if np.max(np.abs(r0)) > 1e-12:
        raise FiliformError("graded filiform skeleton fails the Leibniz identity")

    cols = []
    for lab in labels:
        r = leibniz_residual_tensor(StructureTensor((t0 + _direction(n, lab)).astype(complex)))
        cols.append(np.real(r).reshape(-1))
    a = np.column_stack(cols)

    _, s, vh = np.linalg.svd(a, full_matrices=False)
    tol = RANK_RTOL * (s[0] if s.size else 1.0)
    rank = int(np.sum(s > tol))
    null_rows = vh[rank:, :]
    free_count = len(labels) - rank

    free = free_labels(n)
    if free_count != len(free):
        raise FiliformError(
            f"n={n}: expected {len(free)} free coefficients, solver found {free_count}"
        )
    free_idx = [labels.index(lab) for lab in free]
    dep_idx = [k for k in range(len(labels)) if k not in free_idx]

    nmat = null_rows.T  # (unknowns, free_count)
    n_free = nmat[free_idx, :]
    if abs(np.linalg.det(n_free)) < 1e-10:
        raise FiliformError(
            f"n={n}: chosen free coordinates do not parameterize the null space"
        )
    coeff = nmat[dep_idx, :] @ np.linalg.inv(n_free)
    # the relations have integer coefficients; drop the SVD's rounding once
    near = np.round(coeff)
    coeff = np.where(np.abs(coeff - near) < 1e-9, near, coeff)

    relations = []
    for row, k in enumerate(dep_idx):
        terms = []
        for col, src in enumerate(free):
            c = coeff[row, col]
            if c != 0.0:
                terms.append((src, float(c)))
        relations.append(Relation(labels[k], tuple(terms)))

    return ConstraintReport(
        n=n,
        total_unknowns=len(labels),
        rank=rank,
        free_count=free_count,
        free_labels=tuple(free),
        implied_relations=tuple(relations),
        sign=_row_signs(n, relations),
    )


def _row_signs(n: int, relations) -> dict:
    """Row signs s(i) with gamma[i, j, n] = s(i) * b_{1, i+j-1} (i+j != n).

    s(i) is the coefficient of any relation in row i off the top chain; a
    row with none only holds forced zeros there and gets +1.
    """
    sign = dict.fromkeys(range(1, n - 1), 1)
    for r in relations:
        i, j = int(r.target[1]), int(r.target[2:])
        if r.terms and i + j != n:
            sign[i] = round(r.terms[0][1])
    return sign


# ---------------------------------------------------------------------------
# table builder


@functools.lru_cache(maxsize=None)
def _unit_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The skeleton and, per slot of ``PARAM_SLOTS[n]``, its table direction.

    Each direction is the slot's own unit direction plus c times the unit
    direction of every forced coefficient whose solved relation names it
    with coefficient c.  Slot ``b`` is -b_{1,n-1}, hence its factor -1.
    """
    relations = solve_leibniz_constraints(n).implied_relations
    units = []
    for slot in PARAM_SLOTS[n]:
        label, factor = (f"b1{n - 1}", -1.0) if slot == "b" else (slot, 1.0)
        forced = sum(
            c * _direction(n, r.target) for r in relations for src, c in r.terms if src == label
        )
        units.append(factor * (_direction(n, label) + forced))
    return _skeleton(n), np.array(units, dtype=complex).reshape(len(units), -1)


def build_table(p: ExtensionParams) -> StructureTensor:
    """Full structure tensor of the central extension described by ``p``.

    The last basis vector e_n is central.  The table is the chain skeleton
    plus each free coordinate times its direction in the solved relations
    of the Leibniz constraints, so every forced coefficient follows from
    the solve rather than from a rule restated here.
    """
    skeleton, units = _unit_tables(p.n)
    return StructureTensor(skeleton + (p.as_tuple() @ units).reshape(skeleton.shape))


# ---------------------------------------------------------------------------
# random sampling

#: resampling margin for quantities that classification routines divide by
_MARGIN = 0.05


def _rand_nonzero(rng) -> complex:
    """Magnitude in [0.5, 2], random sign.

    ``integers(0, 2)`` consumes the stream exactly as ``choice`` of two
    items does, at a fraction of its cost.
    """
    return complex(rng.uniform(0.5, 2.0) * (-1.0, 1.0)[rng.integers(0, 2)])


@functools.cache
def _sampling_wants(n: int) -> dict:
    """Cell name (None: no cell) -> (want per slot of ``PARAM_SLOTS[n]``, delta want).

    A want is True (nonzero), False (exact zero) or None (unconstrained).
    """
    slots = PARAM_SLOTS[n]
    out = {None: ((None,) * len(slots), None)}
    for spec in SUBSETS[n]:
        conditions = dict(spec.conditions)
        out[spec.name] = tuple(map(conditions.get, slots)), conditions.get("delta")
    return out


def random_params(
    n: int,
    subset: str | None = None,
    seed: int | None = 0,
    rng=None,
) -> ExtensionParams:
    """Draw parameters, optionally exactly inside one classification cell.

    Slots the cell requires to vanish are set to exact zeros; slots it
    requires nonzero (and unconstrained ones) get magnitudes in [0.5, 2].
    Equalities like delta = 0 hold exactly by construction.  Samples are
    redrawn while any quantity the downstream normal-form routines divide
    by sits within ``0.05`` of zero, so golden-path classification never
    grazes a removable singularity.
    """
    check_rank(n)
    if rng is None:
        rng = np.random.default_rng(seed)
    try:
        slot_wants, want_delta = _sampling_wants(n)[subset]
    except (KeyError, TypeError):
        get_spec(n, subset)  # raises DomainError for an unknown cell
        raise

    for _ in range(200):
        values = [0j if want is False else _rand_nonzero(rng) for want in slot_wants]
        if want_delta is False:
            # all delta = 0 cells require b11 != 0
            values[0] = values[1] ** 2 / (4 * values[2])
        p = params_from_tuple(n, values)
        if want_delta is True and abs(p.delta) < 2 * _MARGIN:
            continue
        if not _clears_margins(p):
            continue
        return p
    raise FiliformError("random_params failed to clear sampling margins")


def _clears_margins(p: ExtensionParams) -> bool:
    if p.n % 2 == 1 and p.b != 0:
        if p.b11 != 0 and abs(2 * p.b11 - p.b01 * p.b) < _MARGIN:
            return False
        if p.b11 == 0 and p.b01 != 0 and abs(p.b01 - p.b00 * p.b) < _MARGIN:
            return False
    if p.n == 8 and p.b16 == 0 and p.b14 != 0 and p.b11 != 0:
        # the orbit function on this cell divides by delta
        if abs(p.delta) < _MARGIN:
            return False
    return True
