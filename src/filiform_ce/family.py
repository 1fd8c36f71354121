"""The graded filiform algebras and their one-dimensional central extensions.

``build_mu(n)`` returns the (n+1)-dimensional graded filiform Lie algebra
with the single nonzero product family [e_i, e_0] = e_{i+1}.  Appending a
central direction e_n and letting the brackets [e_i, e_j] (i, j < n) pick up
e_n-components subject to the Leibniz identity yields a family of
non-Lie Leibniz algebras.  ``solve_leibniz_constraints`` derives, by exact
integer elimination on the identity's residual, which e_n-components are free;
it reads the residual's e_n-rows off the skeleton's sparse brackets, in
pure Python.  ``ExtensionParams`` holds exactly those free coordinates and
``build_table`` expands them into a full structure tensor: the chain
skeleton plus each coordinate times its direction read off the solved
relations (``_slot_entries``, which the closed-form action reads too), so
the forced coefficients and their signs are never written out by hand.
Only the tensor route here (``build_mu``, ``build_table`` and
``random_params`` without a generator) imports numpy, on first use; the
command line's ``build`` writes the same table from ``_sparse_table``, the
skeleton and ``_slot_entries`` in pure Python, so ``build`` from JSON never
loads it.

Parameter naming: the unknown b_ij, the e_n-coefficient of [e_i, e_j], is
the pair (i, j) inside; its name ``bIJ`` (``subsets.label``) is spelled only
at the output edge.  After reduction the free ones are b00, b01, b11, the
even-index row b12, b14, ... b1{n-2}, and (odd n only) one top coefficient
``b`` with [e_i, e_{n-i}] = (-1)^i * b * e_n.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import DomainError, FiliformError
# N_RANGE is defined in subsets; callers import it from here
from .subsets import N_RANGE, PARAM_SLOTS, SUBSETS, check_rank, free_pairs, get_spec, label
from .tolerance import require_finite

if TYPE_CHECKING:
    import numpy as np

    from .tensor import StructureTensor


def build_mu(n: int) -> StructureTensor:
    """Structure tensor of the graded filiform Lie algebra of dimension n+1.

    Basis e_0..e_n; the only nonzero products are [e_i, e_0] = e_{i+1}
    for 1 <= i <= n-1.
    """
    import numpy as np

    if n < 2:
        raise DomainError(f"graded filiform algebra needs n >= 2, got {n}")
    d = n + 1
    gamma = np.zeros((d, d, d), dtype=complex)
    for i in range(1, n):
        gamma[i, 0, i + 1] = 1.0
    return _tensor().StructureTensor(gamma)


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True, slots=True, init=False)
class ExtensionParams:
    """Free coordinates of a central extension of ``build_mu(n)``.

    ``b_even`` lists b12, b14, ... (length (n-2)//2); ``b`` is the top
    coefficient, present only for odd n (forced to exactly 0 otherwise).
    Every construction, ``dataclasses.replace`` included, runs
    ``__post_init__``, which converts, validates and writes each field once.
    """

    n: int
    b00: complex
    b01: complex
    b11: complex
    b_even: tuple[complex, ...]
    b: complex = 0
    #: ``as_tuple()``, built once: a classification reads it a few dozen times
    _values: tuple[complex, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, n, b00, b01, b11, b_even, b=0):
        self.__post_init__(n, b00, b01, b11, b_even, b)

    def __post_init__(self, n, b00, b01, b11, b_even, b):
        check_rank(n)
        want = (n - 2) // 2
        if len(b_even) != want:
            raise DomainError(
                f"b_even must have length {want} for n={n}, got {len(b_even)}"
            )
        b_even = tuple(map(complex, b_even))
        b00, b01, b11, b = complex(b00), complex(b01), complex(b11), complex(b)
        values = (b00, b01, b11, *b_even, b)
        require_finite(values, "extension parameters")
        if n % 2 == 0 and b != 0:
            raise DomainError(f"b must be 0 for even n, got {b!r}")
        put = object.__setattr__
        put(self, "n", n)
        put(self, "b00", b00)
        put(self, "b01", b01)
        put(self, "b11", b11)
        put(self, "b_even", b_even)
        put(self, "b", b)
        put(self, "_values", values if n % 2 else values[:-1])

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

def _unknowns(n: int) -> list[tuple[int, int]]:
    return [(0, 0), (0, 1), (1, 1)] + [(i, j) for i in range(1, n - 1) for j in range(i + 1, n)]


def _unit_entries(pair: tuple[int, int]) -> dict:
    """e_n-coefficients {(i, j): c} of [e_i, e_j] when the unknown b_ij is 1
    and every other unknown 0: b00, b01 and b11 set one entry, a pair
    (i, j) with 1 <= i < j sets [e_i, e_j] and its negative [e_j, e_i]."""
    i, j = pair
    return {pair: 1} if i == 0 or i == j else {pair: 1, (j, i): -1}


def _chain(n: int) -> dict:
    """The skeleton's brackets as {(i, j): (k, c)}, [e_i, e_j] = c*e_k:
    [e_i, e_0] = e_{i+1} = -[e_0, e_i] for 1 <= i <= n-1."""
    chain = {}
    for i in range(1, n):
        chain[i, 0], chain[0, i] = (i + 1, 1), (i + 1, -1)
    return chain


def _residual_rows(n: int, pairs) -> list:
    """The e_n-rows of the Leibniz residual over the unknowns ``pairs``.

    Entry [i, j, k] of the residual is [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] +
    [[e_i,e_k],e_j].  The unknowns only feed e_n, which is central, so each
    term reaches one only as the outer bracket of an inner skeleton bracket,
    and the residual is affine in them.  Its constant part is the skeleton's
    own residual, checked here in every component.  A row and its negation
    are one constraint: each row's first nonzero entry is made positive and
    repeats are dropped, the rows kept in (i, j, k) order.
    """
    chain = _chain(n)
    where = {key: (col, c) for col, pair in enumerate(pairs) for key, c in _unit_entries(pair).items()}
    rows, defect = {}, {}
    for (p, q), (l, c) in chain.items():  # the inner bracket [e_p, e_q] = c*e_l
        for x in range(n + 1):
            # [e_x, [e_p, e_q]], -[[e_p, e_q], e_x] and [[e_p, e_x], e_q], whose
            # outer brackets hold e_l; one holding e_n (central) is in neither table
            for triple, outer, s in (((x, p, q), (x, l), c), ((p, q, x), (l, x), -c), ((p, x, q), (l, x), c)):
                if outer in chain:
                    m, c2 = chain[outer]
                    defect[triple, m] = defect.get((triple, m), 0) + s * c2
                if outer in where:
                    col, c2 = where[outer]
                    rows.setdefault(triple, [0] * len(pairs))[col] += s * c2
    if any(defect.values()):
        raise FiliformError("graded filiform skeleton fails the Leibniz identity")
    folded = {}
    for triple in sorted(rows):
        row = rows[triple]
        lead = next((x for x in row if x), 0)
        if lead:
            folded[tuple(x if lead > 0 else -x for x in row)] = None
    return list(folded)


@dataclass(frozen=True)
class Relation:
    """One derived equality: target = sum of coeff * source terms.

    Empty ``terms`` means the coefficient is forced to vanish.
    """

    target: str
    terms: tuple[tuple[str, int], ...]


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
    null space of its e_n-rows (``_residual_rows``), read off the sparse
    skeleton.  Their entries are integers, so Gauss-Jordan elimination in
    exact rationals, the dependent pairs pivoted first, reads the
    relations off the reduced rows.
    """
    check_rank(n, top=N_RANGE.stop)  # one rank past the family
    free = free_pairs(n)
    dep = [pair for pair in _unknowns(n) if pair not in free]
    pairs = dep + free
    rows = [list(map(Fraction, row)) for row in _residual_rows(n, pairs)]

    pivots = []
    for col in range(len(pairs)):
        rank = len(pivots)
        k = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if k is None:
            continue
        lead = rows[k][col]
        rows[k], rows[rank] = rows[rank], [x / lead for x in rows[k]]
        for i, row in enumerate(rows):
            if i != rank and (f := row[col]):
                rows[i] = [x - f * y for x, y in zip(row, rows[rank])]
        pivots.append(col)

    free_count = len(pairs) - len(pivots)
    if free_count != len(free):
        raise FiliformError(
            f"n={n}: expected {len(free)} free coefficients, solver found {free_count}"
        )
    if pivots != list(range(len(dep))):
        raise FiliformError(f"n={n}: chosen free coordinates do not parameterize the null space")
    coeff = [[-x for x in row[len(dep):]] for row in rows[: len(dep)]]
    if any(c.denominator != 1 for row in coeff for c in row):
        raise FiliformError(f"n={n}: a relation coefficient is not an integer")
    relations = [
        Relation(label(target), tuple((label(src), c.numerator) for src, c in zip(free, row) if c))
        for target, row in zip(dep, coeff)
    ]

    return ConstraintReport(
        n=n,
        total_unknowns=len(pairs),
        rank=len(pivots),
        free_count=free_count,
        free_labels=tuple(map(label, free)),
        implied_relations=tuple(relations),
        sign=_row_signs(n, dep, relations),
    )


def _row_signs(n: int, dep, relations) -> dict:
    """Row signs s(i) with gamma[i, j, n] = s(i) * b_{1, i+j-1} (i+j != n).

    ``relations`` solve the dependent pairs ``dep``, in order.  s(i) is the
    coefficient of any relation in row i off the top chain; a row with none
    only holds forced zeros there and gets +1.
    """
    sign = dict.fromkeys(range(1, n - 1), 1)
    for (i, j), r in zip(dep, relations):
        if r.terms and i + j != n:
            sign[i] = r.terms[0][1]
    return sign


# ---------------------------------------------------------------------------
# table builder


@functools.cache
def _slot_entries(n: int) -> tuple:
    """Per free pair of ``free_pairs(n)`` (the slots of ``PARAM_SLOTS[n]``,
    in order), the e_n-coefficients {(i, j): c} of its table direction.

    A direction is the pair's own unit entries plus c times those of every
    forced coefficient whose solved relation names it with coefficient c;
    the relations are zipped with the dependent pairs in solve order.  The
    top pair (1, n-1) of odd n is slot ``b`` = -b_{1,n-1}, hence its factor
    -1.  The dicts are shared: read them, never change them.
    """
    free = free_pairs(n)
    dep = [pair for pair in _unknowns(n) if pair not in free]
    forced = [(pair, dict(r.terms)) for pair, r in zip(dep, solve_leibniz_constraints(n).implied_relations)]
    out = []
    for pair in free:
        factor = -1 if pair == (1, n - 1) else 1
        name = label(pair)
        sources = [(pair, 1)] + [(target, terms[name]) for target, terms in forced if name in terms]
        entries = {}
        for target, c in sources:
            for key, v in _unit_entries(target).items():
                entries[key] = entries.get(key, 0) + factor * c * v
        out.append(entries)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _unit_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The skeleton and, per slot of ``PARAM_SLOTS[n]``, its table direction
    (``_slot_entries``) as a complex row.  The skeleton is complex too, so
    adding it to a table's e_n-part casts nothing."""
    import numpy as np

    d = n + 1
    skeleton = np.zeros((d, d, d), dtype=complex)
    for (i, j), (k, c) in _chain(n).items():
        skeleton[i, j, k] = c
    entries = _slot_entries(n)
    units = np.zeros((len(entries), d, d, d), dtype=complex)
    for s, slot in enumerate(entries):
        for (i, j), c in slot.items():
            units[s, i, j, n] = c
    return skeleton, units.reshape(len(entries), -1)


def build_table(p: ExtensionParams) -> StructureTensor:
    """Full structure tensor of the central extension described by ``p``.

    The last basis vector e_n is central.  The table is the chain skeleton
    plus each free coordinate times its direction in the solved relations
    of the Leibniz constraints, so every forced coefficient follows from
    the solve rather than from a rule restated here.
    """
    return _tensor().StructureTensor(_table(p.n, p.as_tuple()))


def _sparse_table(p: ExtensionParams) -> dict:
    """``build_table(p)`` in pure Python, as {(i, j, k): complex} over the
    entries the chain skeleton and the slot directions (``_slot_entries``)
    reach, the sources ``_unit_tables`` reads; every other entry is zero.
    Each entry sums from a complex zero, as the dense table's does, so a
    zero among them is +0.0 and the two tables agree bit for bit."""
    n = p.n
    ent = {(i, j, k): 0j + c for (i, j), (k, c) in _chain(n).items()}
    for v, slot in zip(p.as_tuple(), _slot_entries(n)):
        for (i, j), c in slot.items():
            ent[i, j, n] = ent.get((i, j, n), 0j) + c * v
    return ent


def _table(n: int, values) -> np.ndarray:
    """``build_table``'s gamma array, unvalidated, for slot values in
    ``as_tuple`` order; an array ``values`` of shape (..., slots) gives a
    stack of tables of shape (..., d, d, d), each bit for bit its member's."""
    import numpy as np

    skeleton, units = _unit_tables(n)
    flat = (np.asarray(values)[..., None, :] @ units)[..., 0, :]
    return skeleton + flat.reshape(flat.shape[:-1] + skeleton.shape)


def _build_stack(n: int, values) -> tuple[np.ndarray, np.ndarray]:
    """``build_table`` over the leading stack axes of ``values`` (...,
    slots): the tables (``_table``) and, per member, whether
    ``StructureTensor``'s guards admit its table."""
    tensor = _tensor()
    gamma = _table(n, values)
    return gamma, tensor._admitted(tensor.StructureTensor._guards(gamma))


@functools.cache
def _tensor():
    """The module ``tensor``, imported on first use: the closed-form path
    never loads numpy (a relative import in the call costs ~1.5 us)."""
    from . import tensor

    return tensor


# ---------------------------------------------------------------------------
# random sampling

#: resampling margin for quantities that classification routines divide by
_MARGIN = 0.05


def _seeded_rng(seed):
    """numpy's default generator seeded with ``seed``, None or an ``int``
    >= 0; any other seed, a ``bool`` included, raises :class:`DomainError`."""
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool) or seed < 0):
        raise DomainError(f"seed must be None or an int >= 0, got {seed!r}")
    import numpy as np

    return np.random.default_rng(seed)


def _rand_nonzero(rng) -> complex:
    """Magnitude in [0.5, 2], random sign.

    ``lo + (hi - lo) * random()`` is how numpy computes ``uniform(lo, hi)``,
    so it draws the same bits from the stream at a third of the cost.  The
    sign is the top bit of one 32-bit draw, the bit that ``integers(0, 2)``
    (and ``choice`` of two items) returns: a float32 ``random()`` is that
    draw's top 24 bits over 2**24, so it is >= 0.5 exactly when the bit is
    set, and it reads the same cached half of a 64-bit output at about half
    the cost of ``integers``.
    """
    return complex((0.5 + 1.5 * rng.random()) * (1.0 if rng.random(dtype="float32") >= 0.5 else -1.0))


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
    grazes a removable singularity.  Without ``rng`` the draw is seeded
    with ``seed`` (``_seeded_rng``).
    """
    check_rank(n)
    if rng is None:
        rng = _seeded_rng(seed)
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
        if not (want_delta is True and abs(p.delta) < 2 * _MARGIN) and _clears_margins(p):
            return p
    raise FiliformError("random_params failed to clear sampling margins")


def _shear(p: ExtensionParams, lead: str | None) -> tuple[complex, complex]:
    """(num, den) of the normal form's shear A1/A0 by the lead option (``classify``, step 1)."""
    if lead == "b11":
        return -p.b01, 2 * p.b11
    if lead == "b01":
        return -p.b00, p.b01
    return 0j, 1


def _clears_margins(p: ExtensionParams) -> bool:
    if p.n % 2 == 1 and p.b != 0:
        num, den = _shear(p, "b11" if p.b11 != 0 else "b01" if p.b01 != 0 else None)
        if abs(den + num * p.b) < _MARGIN:
            return False
    # the orbit function of the n = 8 cell with b14 on top and b11 lead divides by delta
    return not (p.n == 8 and p.b16 == 0 and p.b14 != 0 and p.b11 != 0 and abs(p.delta) < _MARGIN)
