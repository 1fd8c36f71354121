"""Basis changes that preserve the adapted shape of an extension table.

An adapted transform is determined by where it sends the first two basis
vectors:

    f(e_0) = A0*e_0 + A1*e_1,      f(e_1) = B_1*e_1 + ... + B_{n-2}*e_{n-2},

the rest of the image basis being generated by the recursion
``f(e_{i+1}) = [f(e_i), f(e_0)]`` inside the extension algebra.  Such a
transform is nondegenerate when A0, B_1 and A0 + A1*b are all nonzero; it
then maps the family to itself, and its effect on the free parameters has a
closed form (``act_on_params``).  Products and inverses never read the table:
e_n is central, so rows 0..n-2 of the matrix hold (A0, A1) in column 0 and
A0^{i-1} B_{k-i+1} in column i >= 1.  With B(x) = sum_k B_k x^{k-1} (n-2 terms),
t then t' is (A0 A0', A1 A0' + B_1 A1', B(x) B'(A0 x)), and t^-1 is (1/A0,
-A1/(A0 B_1), B') with B'(A0 x) = 1/B(x).  Every even row follows one rule,

    b'_{1,m} = sum_{k, l>=m} B_k B_{l-m+1} c_{k,l} / (A0^{n-m-n%2} B_1 [A0 + A1 b]),

with c_{k,l} the e_n-coefficient of [e_k, e_l] (linear in the parameters,
so read once per rank off the solved relations) and the bracket for odd n only.
That rule (``_sum_terms``) is the only statement of the action: on first use
it is written out as straight-line Python, one function per tuple of slots
read, the whole action among them (``_compiled``), each compiled once and
kept in :mod:`linecache` so tracebacks show the failing line.

The group is generated by three kinds of elementary transforms (sigma, tau,
upsilon below); generators touching only the trailing basis directions act
trivially on parameters, which is what justifies dropping the tail when
reducing an arbitrary basis-change matrix back to (A0, A1, B).  The
reference routes for both claims live in :mod:`filiform_ce.verify`.
"""

from __future__ import annotations

import functools
import linecache
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    DegenerateTransformError,
    DomainError,
    TableShapeError,
)
from .family import ExtensionParams, _build_stack, _rand_nonzero, _seeded_rng, _slot_entries, build_table, params_from_tuple
from .subsets import PARAM_SLOTS, check_rank, free_pairs
from .tolerance import require_finite

if TYPE_CHECKING:
    import numpy as np

    from .tensor import StructureTensor


@dataclass(frozen=True, slots=True, init=False)
class AdaptedTransform:
    """(A0, A1, B_1..B_{n-2}) data of an adapted basis change.

    Every construction, ``dataclasses.replace`` included, runs
    ``__post_init__``, which converts, validates and writes each field once.
    """

    n: int
    A0: complex
    A1: complex
    B: tuple[complex, ...]

    def __init__(self, n, A0, A1, B):
        self.__post_init__(n, A0, A1, B)

    def __post_init__(self, n, A0, A1, B):
        check_rank(n)
        if len(B) != n - 2:
            raise DomainError(f"B must have length {n - 2} for n={n}, got {len(B)}")
        a0, a1 = complex(A0), complex(A1)
        bvec = tuple(map(complex, B))
        require_finite((a0, a1, *bvec), "transform coefficients")
        put = object.__setattr__
        put(self, "n", n)
        put(self, "A0", a0)
        put(self, "A1", a1)
        put(self, "B", bvec)

    def coeff_B(self, k: int) -> complex:
        """B_k with out-of-range indices read as zero."""
        return self.B[k - 1] if 1 <= k <= self.n - 2 else 0j


def identity_transform(n: int) -> AdaptedTransform:
    return AdaptedTransform(n, 1, 0, (1,) + (0,) * (n - 3))


def _require_nondegenerate(t: AdaptedTransform, p: ExtensionParams) -> None:
    """Same n as ``p`` and invertible there: only an exact zero degenerates the
    scale factors A0 and B_1; the shear vanishes when it cancels to rounding level.
    The tests run in that order and stop at the first that fires.  A shear
    whose magnitude leaves float range, though its parts are finite, is a
    ``DomainError``."""
    if t.n != p.n:
        raise DomainError(f"transform has n={t.n} but parameters have n={p.n}")
    a0 = t.A0
    if a0 == 0:
        name = "A0"
    elif t.B[0] == 0:
        name = "B_1"
    else:
        shear = t.A1 * p.b
        try:
            if not abs(a0 + shear) <= 1e-12 * max(abs(a0), abs(shear)):
                return
        except OverflowError as exc:  # ``abs`` raises where |.| of a finite complex overflows
            raise DomainError("adapted transform leaves floating-point range: |A0 + A1*b| overflows") from exc
        name = "A0 + A1*b"
    raise DegenerateTransformError(f"adapted transform is degenerate: {name} vanishes")


# ---------------------------------------------------------------------------
# elementary generators


@dataclass(frozen=True)
class ElementaryTransform:
    """One generator of the adapted group.

    * ``sigma``: e_1 -> e_1 + a*e_k (k >= 2)
    * ``tau``:   e_0 -> e_0 + a*e_k (k >= 1)
    * ``upsilon``: e_0 -> a*e_0, e_1 -> b*e_1 (a, b nonzero)
    """

    kind: str
    a: complex = 0
    b: complex = 0
    k: int = 0


def sigma(a, k: int) -> ElementaryTransform:
    if k < 2:
        raise DomainError(f"sigma index must be >= 2, got {k}")
    return ElementaryTransform("sigma", a=complex(a), k=k)


def tau(a, k: int) -> ElementaryTransform:
    if k < 1:
        raise DomainError(f"tau index must be >= 1, got {k}")
    return ElementaryTransform("tau", a=complex(a), k=k)


def upsilon(a, b) -> ElementaryTransform:
    a, b = complex(a), complex(b)
    if a == 0 or b == 0:
        raise DomainError("upsilon scales must both be nonzero")
    return ElementaryTransform("upsilon", a=a, b=b)


def elementary_to_adapted(e: ElementaryTransform, n: int) -> AdaptedTransform:
    """Reduced form of a generator; tail generators reduce to the identity."""
    ident = identity_transform(n)
    if e.kind == "sigma":
        if not 2 <= e.k <= n:
            raise DomainError(f"sigma index {e.k} out of range 2..{n}")
        if e.k > n - 2:
            return ident
        bvec = list(ident.B)
        bvec[e.k - 1] = e.a
        return AdaptedTransform(n, 1, 0, tuple(bvec))
    if e.kind == "tau":
        if not 1 <= e.k <= n:
            raise DomainError(f"tau index {e.k} out of range 1..{n}")
        if e.k >= 2:
            return ident
        return AdaptedTransform(n, 1, e.a, ident.B)
    if e.kind == "upsilon":
        return AdaptedTransform(n, e.a, 0, (e.b,) + (0,) * (n - 3))
    raise DomainError(f"unknown elementary transform kind {e.kind!r}")


def elementary_factors(t: AdaptedTransform) -> list[ElementaryTransform]:
    """Generator factorization of a nondegenerate transform, in application order.

    Composing the parameter actions of the returned factors, first to last,
    reproduces ``act_on_params(t, .)``: the shear tau(A1/A0, 1) acts first,
    then one shift sigma(c_k, k) per slot, and the scaling upsilon(A0, B_1)
    last.  Two consecutive shifts feed the slot k+l-1, so the exact
    coefficients c_k solve a triangular system; the uncorrected per-slot
    ratios B_k/B_1 reproduce the parameter action only for n <= 6, where
    the polluted slots never enter it.
    """
    if t.A0 == 0 or t.coeff_B(1) == 0:
        raise DegenerateTransformError("cannot factor a degenerate transform")
    n = t.n
    factors = [tau(t.A1 / t.A0, 1)]
    # image[j] tracks the e_j-coefficient of the composed shifts on e_1
    image = [0j, 1 + 0j] + [0j] * (n - 3)
    for k in range(2, n - 1):
        c = t.coeff_B(k) / t.coeff_B(1) - image[k]
        shifted = [0j] * (k - 1) + image[: n - k]
        image = [x + c * y for x, y in zip(image, shifted)]
        factors.append(sigma(c, k))
    factors.append(upsilon(t.A0, t.coeff_B(1)))
    return factors


# ---------------------------------------------------------------------------
# matrices


def adapted_matrix(t: AdaptedTransform, p: ExtensionParams) -> np.ndarray:
    """Full basis-change matrix of ``t`` on the extension table of ``p``.

    Column i holds the old-basis coordinates of the new basis vector
    f(e_i); columns beyond the first two come from the bracket recursion
    and include their central corrections.
    """
    import numpy as np

    _require_nondegenerate(t, p)
    n = p.n
    m = np.zeros((n + 1, n + 1), dtype=complex)
    _first_columns(m, t)
    _bracket_columns(m, build_table(p).gamma)
    return m


def _first_columns(m: np.ndarray, t: AdaptedTransform) -> None:
    """Write f(e_0) and f(e_1) of ``t`` into columns 0 and 1 of a zero ``m``."""
    m[0, 0], m[1, 0] = t.A0, t.A1
    m[1 : t.n - 1, 1] = t.B


def _bracket_columns(m: np.ndarray, gamma: np.ndarray) -> None:
    """Fill columns 2..n of ``m`` by the recursion f(e_{i+1}) = [f(e_i), f(e_0)]
    on the table ``gamma``: each is bracket(table, m[:, i], m[:, 0]), in
    bracket's order of operations but without its per-call conversions and
    shape checks.  ``m`` (..., d, d) and ``gamma`` (..., d, d, d) may carry
    the same leading stack axes, one member per index."""
    *stack, d = m.shape[:-1]
    square = (*stack, d, d)
    first, drop, steps = _column_steps(m.ndim, d)
    gamma = gamma.reshape(*stack, d, d * d)
    col0 = m[first].copy()
    for column, following in steps:
        m[following] = (col0 @ (m[column] @ gamma).reshape(square))[drop]


@functools.cache
def _column_steps(ndim: int, d: int) -> tuple:
    """Index tuples of ``_bracket_columns`` on arrays of ``ndim`` axes, for
    every member at once: column 0 as a row vector, the index that drops
    that row axis again, and per i = 1..d-2 column i as a row vector and
    column i+1.  Built once per shape, they index as cheaply as plain
    indices on one member."""
    every = (slice(None),) * (ndim - 2)

    def row_vector(i):
        return every + (None, slice(None), i)

    return row_vector(0), every + (0,), tuple((row_vector(i), every + (slice(None), i + 1)) for i in range(1, d - 1))


def transform_from_matrix(m: np.ndarray, n: int) -> AdaptedTransform:
    """Reduced (A0, A1, B) data of a basis-change matrix.

    Drops the trailing components of the first two columns; legitimate
    because those directions are spanned by parameter-trivial generators
    (the harness's ``tail-triviality`` check).
    """
    import numpy as np

    m = np.asarray(m, dtype=complex)
    return AdaptedTransform(n, m[0, 0], m[1, 0], tuple(m[k, 1] for k in range(1, n - 1)))


def compose(t1: AdaptedTransform, t2: AdaptedTransform, p: ExtensionParams) -> AdaptedTransform:
    """Transform acting on ``p`` like ``t1`` followed by ``t2`` (product rule above)."""
    _require_nondegenerate(t2, act_on_params(t1, p))
    bvec = [0j] * (p.n - 2)  # B(x) * B'(A0*x) by Horner's rule in B'
    for bj in reversed(t2.B):
        bvec = [bj * bk + t1.A0 * c for bk, c in zip(t1.B, [0j, *bvec])]
    return AdaptedTransform(p.n, t1.A0 * t2.A0, t1.A1 * t2.A0 + t1.B[0] * t2.A1, bvec)


def inverse_transform(t: AdaptedTransform, p: ExtensionParams) -> AdaptedTransform:
    """Transform undoing ``t``; valid at ``act_on_params(t, p)`` (inverse rule above)."""
    _require_nondegenerate(t, p)
    b, a0, power = t.B, 1 / t.A0, 1  # products, not ``**``, which raises on overflow
    recip, bvec = [1 / b[0]], [1 / b[0]]
    for k in range(1, len(b)):
        recip.append(-sum(b[j] * recip[k - j] for j in range(1, k + 1)) / b[0])
        power *= a0
        bvec.append(recip[k] * power)
    return AdaptedTransform(p.n, a0, -t.A1 * a0 / b[0], bvec)


# ---------------------------------------------------------------------------
# parameter action


def act_on_params(t: AdaptedTransform, p: ExtensionParams) -> ExtensionParams:
    """Closed-form effect of an adapted transform on the free parameters."""
    _require_nondegenerate(t, p)
    n = p.n
    try:
        c = _compiled(n)(t.A0, t.A1, t.B, p.as_tuple())
    except OverflowError as exc:  # ``**`` raises where a power of A0 leaves float range
        raise DomainError(f"the action at n={n} overflows floating-point range") from exc
    except ZeroDivisionError as exc:  # a power of A0 in a denominator underflows to 0
        raise DomainError(f"the action at n={n} underflows floating-point range") from exc
    return ExtensionParams(n, c[0], c[1], c[2], c[3 : 3 + (n - 2) // 2], c[-1] if n % 2 else 0j)


@functools.cache
def _sum_terms(n: int) -> tuple:
    """Per even row m: (n-m-n%2, terms), terms (slot, ((c, i, j), ...)).

    The sum is B^T C B, C[i, j] = c_{i+1, j+m} read off each slot's solved
    table direction (``family._slot_entries``); B_i*B_j and B_j*B_i are
    merged (0-based i <= j), and each slot multiplies its polynomial in B,
    as in the paper's forms.
    """
    rows = []
    for m in range(2, n - 1, 2):
        terms = []
        for s, entries in enumerate(_slot_entries(n)):
            poly = []
            for i in range(n - 2):
                for j in range(i, n - 2):
                    c = entries.get((i + 1, j + m), 0) + (entries.get((j + 1, i + m), 0) if j > i else 0)
                    if c:
                        poly.append((float(c), i, j))
            if poly:
                terms.append((s, tuple(poly)))
        rows.append((n - m - n % 2, tuple(terms)))
    return tuple(rows)


@functools.cache
def _compiled(n: int, reads: tuple | None = None):
    """The closed form at rank n as straight-line code, compiled on first use.

    ``f(a0, a1, bvec, v)`` works on plain tuples in ``as_tuple`` order
    (``bvec`` holds B_1..B_{n-2}), unvalidated, and returns the slots
    ``reads`` (ascending ``as_tuple`` indices; every slot when left out) as
    a tuple in that order.  The source stays in :mod:`linecache` under
    ``<action n=N>`` (every slot) or ``<action n=N slots (...)>``, so
    tracebacks show the failing line.
    """
    filename = f"<action n={n}>" if reads is None else f"<action n={n} slots {reads}>"
    source = _source(n, range(len(PARAM_SLOTS[n])) if reads is None else reads)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["act"]


def _source(n: int, reads) -> str:
    """Straight-line Python for the slots ``reads`` of the closed form, read
    off ``_sum_terms(n)``.

    The slots are (a0^2 b00 + a0 a1 b01 + a1^2 b11)/(nn B1), (a0 b01 +
    2 a1 b11)/nn and B1 b11/nn with nn = a0^(n-2) (a0 + a1 b), each even
    row its coefficient sum over a0^power B1 (times the shear at odd n), and
    at odd n B1 b/(a0 + a1 b).  Sums start at 0j and add the terms in rule
    order, term by term.  The slots are computed in ``reads`` order, except
    that the slots which are not even rows are computed together, in slot
    order, where the first of them is read: a zero divisor or an
    overflowing power in any of them raises.
    """
    slots = PARAM_SLOTS[n]
    odd = n % 2
    tail = "shear" if odd else "1"

    def row(power, terms):
        total = "0j"
        for s, poly in terms:
            coeff = "".join(f" + {c!r} * B{i + 1} * B{j + 1}" for c, i, j in poly)
            total += f" + (0j{coeff}) * {slots[s]}"
        return f"({total}) / (a0 ** {power} * B1 * {tail})"

    rows = {i: row(*r) for i, r in enumerate(_sum_terms(n), 3)}
    lead = {
        0: "(a0 * a0 * b00 + a0 * a1 * b01 + a1 * a1 * b11) / (nn * B1)",
        1: "(a0 * b01 + 2 * a1 * b11) / nn",
        2: "B1 * b11 / nn",
    } | ({len(slots) - 1: "B1 * b / shear"} if odd else {})
    nn = f"nn = a0 ** {n - 2} * shear"
    body = [f"shear = a0 + a1 * {'b' if odd else '0j'}"] * (odd or any(i not in rows for i in reads))
    for i in reads:
        if i in rows:
            body.append(f"u{i} = {rows[i]}")
        elif nn not in body:
            body += [nn] + [f"u{k} = {e}" for k, e in lead.items()]
    body.append(f"return ({''.join(f'u{i}, ' for i in reads).rstrip()})")
    head = [
        "def act(a0, a1, bvec, v):",
        f"    {', '.join(slots)} = v",
        f"    {', '.join(f'B{k}' for k in range(1, n - 1))} = bvec",
    ]
    return "\n".join(head + [f"    {line}" for line in body]) + "\n"


# ---------------------------------------------------------------------------
# reading parameters back off a table


def read_params(t: StructureTensor) -> ExtensionParams:
    """Extract free parameters from a structure tensor of adapted shape.

    The designated entries are read off, the full table is rebuilt from
    them, and every entry is compared; any mismatch (wrong skeleton, broken
    proportionality, non-central last vector, ...) beyond 1e-8 plus 1e-6
    times the largest entry raises :class:`TableShapeError` listing the
    offending entries.
    """
    import numpy as np

    n = t.dim - 1
    check_rank(n)
    g = t.gamma
    p = params_from_tuple(n, _read_off(n, g).tolist())
    rebuilt = build_table(p).gamma
    bad = np.argwhere(_deviating(g, rebuilt))
    if bad.size:
        entries = [
            ((int(i), int(j), int(k)), complex(g[i, j, k]), complex(rebuilt[i, j, k]))
            for i, j, k in bad[:12]
        ]
        locs = ", ".join(str(e[0]) for e in entries)
        raise TableShapeError(
            f"tensor is not an adapted extension table; "
            f"{len(bad)} entries deviate, first at {locs}",
            entries,
        )
    return p


def _read_stack(n: int, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``read_params`` of the tables ``g`` (..., d, d, d) of rank ``n``, over
    their leading stack axes: the slot values read off and, per member,
    whether ``read_params`` keeps it: ``build_table`` admits the table
    rebuilt from its values (``_build_stack``), and that table misses no
    entry of ``g`` (``_deviating``).  A member kept reads back bit for bit
    as it does alone."""
    values = _read_off(n, g)
    rebuilt, kept = _build_stack(n, values)
    return values, kept & ~_deviating(g, rebuilt).any(axis=(-3, -2, -1))


def _read_off(n: int, g: np.ndarray) -> np.ndarray:
    """The slot values of the tables ``g`` (..., d, d, d), over any leading
    stack axes: each slot is the entry [e_i, e_j] of its free pair, and slot
    b is -b_{1,n-1}."""
    i, j = _free_index(n)
    values = g[..., i, j, n]
    if n % 2:
        values[..., -1] = -values[..., -1]
    return values


@functools.cache
def _free_index(n: int) -> tuple:
    import numpy as np

    return tuple(np.array(free_pairs(n)).T)


def _deviating(g: np.ndarray, rebuilt: np.ndarray) -> np.ndarray:
    """Mask of the entries where ``rebuilt`` misses ``g`` by more than 1e-8
    plus 1e-6 times the largest entry of ``g`` (at least 1), member by member
    over any leading stack axes."""
    import numpy as np

    scale = np.maximum(np.abs(g).max(axis=(-3, -2, -1), keepdims=True), 1.0)
    return np.abs(g - rebuilt) > 1e-8 + 1e-6 * scale


# ---------------------------------------------------------------------------
# sampling


def random_transform(
    n: int,
    seed: int | None = 0,
    b: complex = 0,
    rng=None,
) -> AdaptedTransform:
    """Random nondegenerate transform; pass the parameters' top coefficient
    as ``b`` so the shear A0 + A1*b stays well away from zero.  Without
    ``rng`` the draw is seeded with ``seed`` (``family._seeded_rng``)."""
    if rng is None:
        rng = _seeded_rng(seed)

    def any_size():  # uniform(-2, 2), drawn as ``_rand_nonzero`` draws it
        return complex(-2.0 + 4.0 * rng.random())

    for _ in range(200):
        t = AdaptedTransform(
            n,
            _rand_nonzero(rng),
            any_size(),
            (_rand_nonzero(rng),) + tuple(any_size() for _ in range(n - 3)),
        )
        if abs(t.A0 + t.A1 * b) >= 0.05:
            return t
    raise DegenerateTransformError("failed to sample a nondegenerate transform")
