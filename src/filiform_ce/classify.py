"""Orbit classification of the extension family under adapted transforms.

For each family the parameter space splits into the cells of
:mod:`filiform_ce.subsets`.  Every non-parametric cell is a single orbit
with a fixed 0/1 representative; every parametric cell is a one-parameter
family of orbits indexed by a canonical value ``lam`` sitting in the b00
slot of its representative.  ``canonicalize`` produces the witness
transform realizing the normal form, ``orbit_invariant`` gives the value
of the cell's rational orbit function, and ``isomorphic`` decides
equivalence of two members (up to the finite stabilizer of the normal
form, where one exists) and returns an explicit witness.

Each published orbit function is invariant, so it takes its value on the
normal form, where delta = -4*lam and its other factors read 1: (-4*lam)**k,
k the order of the cell's stabilizer (1 without one).  At (5, U_1) and
(7, U_1) it also divides by (b01*b - 2*b11)**2 = 4, and at (8, U_5) the
paper inverts it.  The published formulas live in :mod:`filiform_ce.verify`,
which checks these values against them.

One rule, read off the cell's representative pattern, builds every
witness in three steps, each evaluated on the closed form of the action:

1. Shear: s = A1/A0 is -b01/(2*b11) if b11 != 0, else -b00/b01 if
   b01 != 0, else 0.  For odd n it divides the chain by 1 + s*b; where
   that vanishes (the thin locus) the representative is out of reach and
   :class:`CanonicalizationError` is raised.
2. Unipotent shifts: B3, then B5, clear the chain slots (b12, b14, b16,
   b) one and two steps below the representative's chain "1"; the closed
   form is affine in the next B, so each step is one linear solve (done
   last, on the witness itself: the torus leaves the cleared slots at 0).
3. Torus: upsilon(A0, B1) multiplies b_ij by A0^x * B1^y, its weight
   w(e_i) + w(e_j) - w(e_n) in the natural grading, w(e_0) = (1, 0) and
   w(e_k) = (k-1, 1): (x, y) = (3-n, -1) for b00, (2-n, 0) for b01,
   (1-n, 1) for b11, (m-n, 1) for b1m and (-1, 1) for b = -b_{1,n-1}.
   (A0, B1) set the representative's "1" slots to 1: A0 is the principal
   |det|-th root of a weight monomial (det of the two weights), and B1
   follows from a slot with y != 0.  It reads the sheared "1" slots in one
   call of the code compiled for just those slots, ``_compiled(n, ones)``;
   each shift reads the slot it clears through ``_compiled(n, (i,))``.

The witness is (A0, A0*s, B1*(1, 0, B3, 0, B5, ...)).  Principal roots
read a zero imaginary part as +0, so ``lam`` does not depend on the sign
of a zero.  Torus elements with A0^|det| = 1 fix the "1" slots and
multiply ``lam`` by A0^e; the cells where e is not a multiple of |det|
are the ``STABILIZERS``.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .action import (
    AdaptedTransform,
    _compiled,
    act_on_params,
    compose,
    identity_transform,
    inverse_transform,
)
from .errors import CanonicalizationError, DomainError, FiliformError
from .family import ExtensionParams, params_from_tuple
from .subsets import LAM, PARAM_SLOTS, SUBSETS, SubsetSpec, check_rank, free_pairs, get_spec, parametric_subsets
from .tolerance import FLAG_WARN_MARGIN, ZERO_FLAG_RTOL

#: absolute-plus-relative tolerance used when matching canonical values
MATCH_TOL = 1e-6


@dataclass(frozen=True)
class InvariantReport:
    """Numerical invariants backing a classification decision.

    ``flags`` maps each parameter slot (plus ``delta``) to True when the
    value is treated as zero.  ``flag_margin`` is the smallest relative
    magnitude among the quantities treated as nonzero, capped at 1; values
    below ~1e-6 mean the classification rests on a borderline zero test.
    """

    delta: complex
    flags: dict
    orbit_value: complex | None
    canonical_lambda: complex | None
    flag_margin: float


@dataclass(frozen=True)
class OrbitLabel:
    n: int
    subset: str
    representative: ExtensionParams
    lam: complex | None
    witness: AdaptedTransform
    invariants: InvariantReport | None = None


# ---------------------------------------------------------------------------
# zero flags and cell membership


def _delta_scale(p: ExtensionParams) -> float:
    s = max(abs(p.b00), abs(p.b01), abs(p.b11))
    return s * s if s > 0 else 1.0


def nonzero_flags(p: ExtensionParams) -> dict:
    """Slot -> True when numerically nonzero; includes the discriminant."""
    mags = list(map(abs, p.as_tuple()))
    scale = max(mags)  # ``p.scale()``, off the magnitudes the flags read
    cut = ZERO_FLAG_RTOL * (scale if scale > 0 else 1.0)
    flags = {slot: m > cut for slot, m in zip(PARAM_SLOTS[p.n], mags)}
    flags["delta"] = abs(p.delta) > ZERO_FLAG_RTOL * _delta_scale(p)
    return flags


def _margin(p: ExtensionParams, flags: dict) -> float:
    scale = p.scale()
    rel = [abs(v) / scale for slot, v in zip(PARAM_SLOTS[p.n], p.as_tuple()) if flags[slot]]
    if flags["delta"]:
        # a scale that underflows to 0 puts the delta test at the rounding floor
        delta_scale = _delta_scale(p)
        rel.append(abs(p.delta) / delta_scale if delta_scale else 0.0)
    return min([1.0, *rel])


def flag_margin(p: ExtensionParams) -> float:
    """Smallest relative magnitude among nonzero-flagged quantities (<= 1)."""
    return _margin(p, nonzero_flags(p))


@functools.cache
def _cell_table(n: int) -> tuple:
    """(pattern, table): ``pattern(flags)`` is the flag tuple over
    (*PARAM_SLOTS[n], "delta"), and ``table`` maps it to its first matching
    cell, found by scanning ``SUBSETS[n]`` in decision order.  Patterns no
    cell matches are left out.
    """
    keys = (*PARAM_SLOTS[n], "delta")
    table = {}
    for pattern in itertools.product((False, True), repeat=len(keys)):
        flags = dict(zip(keys, pattern))
        for spec in SUBSETS[n]:
            if all(flags[slot] == want for slot, want in spec.conditions):
                table[pattern] = spec
                break
    return operator.itemgetter(*keys), table


def _cell(n: int, flags: dict) -> SubsetSpec:
    pattern, table = _cell_table(n)
    spec = table.get(pattern(flags))
    if spec is None:
        raise FiliformError(f"no classification cell matched n={n} flags {flags}")
    return spec


def subset_of(p: ExtensionParams) -> str:
    """Name of the classification cell containing ``p``."""
    return _cell(p.n, nonzero_flags(p)).name


# ---------------------------------------------------------------------------
# normal forms from the torus weights

@functools.cache
def _weight(n: int, s: int) -> tuple[int, int]:
    """(x, y) such that upsilon(A0, B1) multiplies slot ``s`` by A0**x * B1**y:
    w(e_i) + w(e_j) - w(e_n) for its pair (i, j), where e_0 weighs (1, 0)
    and e_k (k >= 1) weighs (k - 1, 1)."""
    (xi, yi), (xj, yj), (xn, yn) = ((1, 0) if k == 0 else (k - 1, 1) for k in (*free_pairs(n)[s], n))
    return xi + xj - xn, yi + yj - yn


@dataclass(frozen=True)
class _Plan:
    """Normal-form steps of one cell, as data.

    ``ones``: the "1" slots (ascending ``as_tuple`` indices) the torus reads,
    as the tuple u.  ``shifts``: (k, i), B_k clears slot i.  ``root``:
    (j, +-1), A0**order is the product of u[j]**+-1.  ``scale``: (j, x, y),
    B1 solves u[j] * A0**x * B1**y = 1 (None leaves B1 = 1).
    """

    shifts: tuple
    root: tuple
    order: int
    scale: tuple | None
    ones: tuple


def _plan(n: int, spec: SubsetSpec) -> _Plan:
    ones = [i for i, v in enumerate(spec.representative) if v == 1]
    # slots 3.. form the chain b12, b14, ... (b on top for odd n); B_{2d+1}
    # clears the chain slot d steps below the representative's chain "1"
    pivot = max((i for i in ones if i >= 3), default=3)
    shifts = tuple((2 * d + 1, pivot - d) for d in range(1, pivot - 2))
    # fewer than two "1" slots: square the torus system up with A0 = 1 or
    # B1 = 1, the first of them independent of the rows already there
    rows = [(j, *_weight(n, i)) for j, i in enumerate(ones)] + [(None, 1, 0), (None, 0, 1)]
    i1, x1, y1 = rows[0]
    i2, x2, y2 = next(row for row in rows[1:] if x1 * row[2] - row[1] * y1)
    det = x1 * y2 - x2 * y1
    sign = 1 if det > 0 else -1
    root = tuple((i, e) for i, e in ((i1, -sign * y2), (i2, sign * y1)) if i is not None and e)
    # B1 from the slot with the smallest A0-power keeps the powers of A0 small
    scalable = [(i, x, y) for i, x, y in rows if i is not None and y]
    scale = min(scalable, key=lambda row: abs(row[1]), default=None)
    return _Plan(shifts, root, abs(det), scale, tuple(ones))


_PLANS = {(n, spec.name): _plan(n, spec) for n in SUBSETS for spec in SUBSETS[n]}

#: (n, cell) -> representative of each non-parametric cell, built once
_FIXED_REPS = {
    (n, s.name): params_from_tuple(n, s.representative) for n in SUBSETS for s in SUBSETS[n] if not s.parametric
}


def _lam_exponent(n: int, plan: _Plan) -> int:
    """e: the torus elements fixing the "1" slots (A0**order = 1) multiply lam by A0**e."""
    (x00, y00), (_i, x, y) = _weight(n, 0), plan.scale
    return (x00 - y00 * x * y) % plan.order


#: (n, cell) -> (order, e) for the parametric cells whose stabilizer moves lam
STABILIZERS = {
    key: (plan.order, _lam_exponent(key[0], plan))
    for key, plan in _PLANS.items()
    if get_spec(*key).parametric and _lam_exponent(key[0], plan)
}


def _root(z: complex, k: int) -> complex:
    """Principal k-th root, reading a zero imaginary part as +0."""
    return complex(z.real, z.imag + 0.0) ** (1.0 / k)


def _canonical_transform(p: ExtensionParams, flags: dict, plan: _Plan) -> AdaptedTransform:
    """Adapted transform carrying ``p`` onto its cell representative.

    Quotients enter as A0 * num / den and A0**-x / v, the order of rounding
    that passes the ill-conditioned witness check more often at extreme
    magnitudes; the shifts are solved on the witness itself for that reason.
    """
    n = p.n
    if flags["b11"]:
        num, den = -p.b01, 2 * p.b11
    elif flags["b01"]:
        num, den = -p.b00, p.b01
    else:
        num, den = 0j, 1
    s = num / den
    if n % 2 == 1 and abs(1 + s * p.b) <= ZERO_FLAG_RTOL:
        raise CanonicalizationError(
            "the shear factor 1 + s*b vanishes (the thin locus of the cell); "
            "no adapted transform moves this member onto the representative"
        )
    v = p.as_tuple()
    # the shifts leave the "1" slots alone, so the torus reads them sheared
    sheared = _compiled(n, plan.ones)(1, s, (1 + 0j,) + (0j,) * (n - 3), v)
    a0 = 1 + 0j
    for j, e in plan.root:
        a0 = a0 * sheared[j] if e > 0 else a0 / sheared[j]
    a0 = _root(a0, plan.order)
    b1 = 1 + 0j
    if plan.scale is not None:
        j, x, y = plan.scale
        b1 = a0 ** -x / sheared[j] if y > 0 else sheared[j] / a0 ** -x
    a1 = a0 * num / den
    bvec = [b1] + [0j] * (n - 3)
    for k, i in plan.shifts:
        f = _compiled(n, (i,))
        (f0,) = f(a0, a1, bvec, v)
        if not f0:
            continue
        # f(B_k) = f0 - d * B_k: d from a trial at B_k = B1 (good to eps * |f0|),
        # then from the secant through 0 and f0 / d; then one Newton step
        bvec[k - 1] = b1
        d = (f0 - f(a0, a1, bvec, v)[0]) / b1
        if not d:
            raise CanonicalizationError(f"chain slot {PARAM_SLOTS[n][i]} too large for its pivot")
        bvec[k - 1] = first = f0 / d
        d = (f0 - f(a0, a1, bvec, v)[0]) / first
        bvec[k - 1] = f0 / d
        bvec[k - 1] += f(a0, a1, bvec, v)[0] / d
    return AdaptedTransform(n, a0, a1, tuple(bvec))


# ---------------------------------------------------------------------------
# orbit functions on the parametric cells

#: (n, cell) -> (r, s): the paper's conventions, where its orbit function reads
#: r * (-4*lam)**(s*order) on the normal form (order: the stabilizer's, or 1)
_ORBIT_CONVENTIONS = {
    (5, "U_1"): (Fraction(1, 4), 1),  # it divides by (b01*b - 2*b11)**2, which reads 4
    (7, "U_1"): (Fraction(1, 4), 1),  # the same
    (8, "U_5"): (1, -1),  # the paper inverts the function here
}


def _orbit_monomial(n: int, cell: str) -> tuple:
    """(c, k): the orbit function reads c * lam**k on the normal form, c exact."""
    r, s = _ORBIT_CONVENTIONS.get((n, cell), (1, 1))
    k = s * STABILIZERS.get((n, cell), (1, 0))[0]
    c = r * Fraction(-4) ** k
    return (int(c) if c.denominator == 1 else float(c)), k


_ORBIT_MONOMIALS = {(n, cell): _orbit_monomial(n, cell) for n in SUBSETS for cell in parametric_subsets(n)}


def orbit_invariant(p: ExtensionParams) -> complex | None:
    """Value of the cell's orbit function; None off the parametric cells.

    Also None where the normal form is out of reach (the thin locus, where
    :func:`canonicalize` raises :class:`CanonicalizationError`) and where
    the function divides by a vanishing ``lam``.  A value beyond
    floating-point range raises :class:`DomainError`.
    """
    flags = nonzero_flags(p)
    if not _cell(p.n, flags).parametric:
        return None
    try:
        label = _canonicalize(p, flags)
    except CanonicalizationError:
        return None
    return _orbit_value(label)


def _orbit_value(label: OrbitLabel) -> complex | None:
    if label.lam is None:
        return None
    c, k = _ORBIT_MONOMIALS[label.n, label.subset]
    if k < 0 and label.lam == 0:
        return None
    try:
        value = c * label.lam**k
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    raise DomainError(
        f"orbit function of cell {label.subset} at n={label.n} overflows at this magnitude"
    )


# ---------------------------------------------------------------------------
# representatives and canonicalization


def representative_params(n: int, subset: str, lam: complex | None = None) -> ExtensionParams:
    """Representative tuple of a cell, with ``lam`` filled into the free slot."""
    spec = get_spec(n, subset)
    if not spec.parametric:
        return _FIXED_REPS[n, subset]
    if lam is None:
        raise DomainError(f"cell {subset} of n={n} needs a lambda value")
    values = [lam if v == LAM else v for v in spec.representative]
    return params_from_tuple(n, values)


def representatives(n: int) -> list[tuple[str, ExtensionParams, bool]]:
    """All cells with a concrete representative; parametric ones at lam = 1."""
    check_rank(n)
    out = []
    for spec in SUBSETS[n]:
        lam = 1 if spec.parametric else None
        out.append((spec.name, representative_params(n, spec.name, lam), spec.parametric))
    return out


def canonicalize(p: ExtensionParams) -> OrbitLabel:
    """Witness transform and normal form for one family member.

    Raises :class:`CanonicalizationError` when the achieved parameters do
    not land on the representative pattern (in particular on the thin loci
    of the odd-family top cells, where the representative is unreachable).
    """
    return _canonicalize(p, nonzero_flags(p))


def _canonicalize(p: ExtensionParams, flags: dict) -> OrbitLabel:
    """:func:`canonicalize` given the member's ``nonzero_flags``."""
    spec = _cell(p.n, flags)
    name = spec.name
    try:  # a power of A0 over- or underflows, the witness or a normal-form slot is not finite
        witness = _canonical_transform(p, flags, _PLANS[p.n, name])
        achieved = act_on_params(witness, p)
    except (OverflowError, ZeroDivisionError, DomainError) as exc:
        raise DomainError(
            f"the normal form of cell {name} at n={p.n} is beyond floating-point range"
        ) from exc
    lam = achieved.b00 if spec.parametric else None
    rep = representative_params(p.n, name, lam)
    err = max(map(abs, map(operator.sub, achieved.as_tuple(), rep.as_tuple())))
    if err > MATCH_TOL * (1 + rep.scale()):
        raise CanonicalizationError(
            f"normal form for cell {name} missed its representative pattern "
            f"(worst slot deviation {err:.3e}); the input may sit on a "
            "degenerate locus of the cell"
        )
    return OrbitLabel(p.n, name, rep, lam, witness)


def classify(p: ExtensionParams) -> OrbitLabel:
    """Full classification: normal form plus invariant report."""
    # through the public ``canonicalize``, whose call the benchmark tracer
    # counts inside ``classify``: the flags are taken once more here
    label = canonicalize(p)
    flags = nonzero_flags(p)
    report = InvariantReport(
        delta=p.delta,
        flags={name: not on for name, on in flags.items()},
        orbit_value=_orbit_value(label),
        canonical_lambda=label.lam,
        flag_margin=_margin(p, flags),
    )
    return OrbitLabel(label.n, label.subset, label.representative, label.lam, label.witness, report)


# ---------------------------------------------------------------------------
# isomorphism


def _stabilizer_transform(n: int, subset: str, mult: complex) -> AdaptedTransform:
    """Torus element fixing the representative with lam -> mult * lam (mult**order = 1)."""
    order, e = STABILIZERS[n, subset]
    a0 = mult ** pow(e, -1, order)
    _i, x, y = _PLANS[n, subset].scale
    return AdaptedTransform(n, a0, 0, (a0 ** (-x * y),) + (0,) * (n - 3))


def isomorphic(
    p: ExtensionParams, q: ExtensionParams
) -> tuple[bool, AdaptedTransform | None]:
    """Decide equivalence under the adapted group; witness maps p onto q.

    Parametric cells compare canonical values up to the finite root-of-unity
    stabilizer of the normal form; when a nontrivial root is needed, the
    corresponding stabilizing transform is spliced into the witness.
    """
    if p.n != q.n:
        raise DomainError(f"cannot compare extensions of rank {p.n} and {q.n}")
    n = p.n
    if p.as_tuple() == q.as_tuple():
        return True, identity_transform(n)
    label_p = canonicalize(p)
    label_q = canonicalize(q)
    if label_p.subset != label_q.subset:
        return False, None

    spec = get_spec(n, label_p.subset)
    witness = label_p.witness
    if spec.parametric:
        lp, lq = label_p.lam, label_q.lam
        order = STABILIZERS.get((n, label_p.subset), (1, 0))[0]
        roots = [cmath.exp(2j * cmath.pi * j / order) for j in range(order)]
        tol = MATCH_TOL * (1 + max(abs(lp), abs(lq)))
        best = min(range(order), key=lambda j: abs(lp - roots[j] * lq))
        if abs(lp - roots[best] * lq) > tol:
            return False, None
        if best != 0:  # lam_q / lam_p as an exact root
            stab = _stabilizer_transform(n, label_p.subset, roots[(order - best) % order])
            witness = compose(witness, stab, p)

    witness = compose(witness, inverse_transform(label_q.witness, q), p)

    achieved = act_on_params(witness, p)
    err = max(abs(x - y) for x, y in zip(achieved.as_tuple(), q.as_tuple()))
    if err > MATCH_TOL * (1 + q.scale()):
        raise FiliformError(
            f"isomorphism witness verification failed (deviation {err:.3e})"
        )
    return True, witness


def warn_if_borderline(p: ExtensionParams) -> str | None:
    """Message when a zero test sits dangerously close to the threshold."""
    m = flag_margin(p)
    if m < FLAG_WARN_MARGIN:
        return (
            f"classification rests on a borderline zero test (margin {m:.2e}); "
            "nearby parameter values may classify differently"
        )
    return None
