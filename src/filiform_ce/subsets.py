"""Per-dimension partition of the extension family into classification cells.

Each family (n in ``N_RANGE``) splits into finitely many cells named
``U_1``, ``U_2``, ... according to which parameters vanish (plus, in one
place, whether the quadratic discriminant ``delta = b01^2 - 4*b00*b11``
vanishes).  Every cell is either a single orbit of the adapted
transformation group or a one-parameter ("parametric") family of orbits,
indexed by a free slot ``lam`` of its representative.

The cells are the product of two options.  The chain option is the top
nonzero chain slot (b for odd n, then b1{n-2} down to b12), or none.  The
lead option is the first nonzero of b11, b01, b00, or none.  The pair
(no chain, b11) splits on delta != 0 and delta = 0.  A cell records its
options in ``options``, the key classification reads; its conditions spell
them out as zero and nonzero tests, so the cells are pairwise disjoint and
cover the parameter space.  Listing order is the paper's decision order: it
decides the top ``k = CHAIN_FIRST[n]`` chain slots before the lead option
and the remaining ones after it; that number is all that differs by rank.

The representative is 1 at the top nonzero chain slot and at the lead slot
and 0 elsewhere; behind b11, b00 is ``lam`` if the chain is nonzero, else 1
exactly when the cell requires delta != 0.  The cell is parametric iff that
holds ``lam``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

#: ranks of the base algebra the paper classifies
N_RANGE = range(4, 9)

#: placeholder used in representative patterns for the free orbit parameter
LAM = "lam"

#: per rank, how many top chain slots are decided before the lead option
CHAIN_FIRST = {4: 0, 5: 1, 6: 0, 7: 3, 8: 3}

_LEAD = ("b11", "b01", "b00")


def check_rank(n, top: int = N_RANGE[-1]) -> None:
    """Raise the entry points' ``DomainError`` unless ``n`` is an int in
    N_RANGE.start..top; a float such as 4.0 is refused too, since ranks size
    and index tables."""
    if not (isinstance(n, int) and N_RANGE.start <= n <= top):
        raise DomainError(f"n must be in {N_RANGE.start}..{top}, got {n!r}")


def free_pairs(n: int) -> list[tuple[int, int]]:
    """Coordinates (i, j) of b_ij the Leibniz identity leaves free: (0, 0),
    (0, 1), (1, 1), each (1, m) with even m up to n-2, and (1, n-1) at odd n."""
    pairs = [(0, 0), (0, 1), (1, 1)] + [(1, m) for m in range(2, n - 1, 2)]
    return pairs + [(1, n - 1)] if n % 2 else pairs


def label(pair: tuple[int, int]) -> str:
    """The name b{i}{j} of the coordinate b_ij, spelled only at the output edge."""
    return "b%d%d" % pair


#: parameter slot names, in tuple order, per family: the free pairs spelled,
#: with the top coefficient b1{n-1} of odd n named ``b``
PARAM_SLOTS: dict[int, tuple[str, ...]] = {
    n: tuple("b" if pair == (1, n - 1) else label(pair) for pair in free_pairs(n))
    for n in N_RANGE
}


@dataclass(frozen=True)
class SubsetSpec:
    name: str
    #: (slot, must_be_nonzero) pairs; slots not listed are unconstrained
    conditions: tuple[tuple[str, bool], ...]
    #: representative tuple over PARAM_SLOTS[n]; entries 0, 1 or LAM
    representative: tuple
    parametric: bool
    #: (top nonzero chain slot, first nonzero lead slot, delta nonzero); None for
    #: no such slot, and delta None except behind (None, "b11")
    options: tuple


def _options(slots):
    """(conditions, slot) for each choice of first nonzero slot, then for none."""
    for i, slot in enumerate(slots):
        yield tuple((s, False) for s in slots[:i]) + ((slot, True),), slot
    yield tuple((s, False) for s in slots), None


def _cells(n: int) -> tuple[SubsetSpec, ...]:
    slots = PARAM_SLOTS[n]
    chain, k = slots[:2:-1], CHAIN_FIRST[n]  # chain slots, top first
    cells = []
    for first, top in _options(chain[:k]):
        for lead_conds, lead in _options(_LEAD):
            for last, low in _options(() if top else chain[k:]):
                conds, options = first + lead_conds + last, (top or low, lead, None)
                rep = dict.fromkeys(slots, 0) | dict.fromkeys(filter(None, options), 1)
                if lead != "b11":
                    cells.append((conds, rep, options))
                elif top or low:
                    cells.append((conds, rep | {"b00": LAM}, options))
                else:
                    cells.append((conds + (("delta", True),), rep | {"b00": 1}, (None, lead, True)))
                    cells.append((conds + (("delta", False),), rep, (None, lead, False)))
    return tuple(
        SubsetSpec(f"U_{i}", conds, tuple(rep.values()), LAM in rep.values(), options)
        for i, (conds, rep, options) in enumerate(cells, 1)
    )


SUBSETS: dict[int, tuple[SubsetSpec, ...]] = {n: _cells(n) for n in N_RANGE}


_SPECS = {(n, spec.name): spec for n in SUBSETS for spec in SUBSETS[n]}


def get_spec(n: int, name: str) -> SubsetSpec:
    check_rank(n)
    try:
        return _SPECS[n, name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise DomainError(f"unknown subset {name!r} for n={n}") from None


def parametric_subsets(n: int) -> list[str]:
    return [s.name for s in SUBSETS[n] if s.parametric]
