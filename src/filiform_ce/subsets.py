"""Per-dimension partition of the extension family into classification cells.

Each family (n = 4..8) splits into finitely many cells named ``U_1``,
``U_2``, ... according to which parameters vanish (plus, in a few places,
whether the quadratic discriminant ``delta = b01^2 - 4*b00*b11`` vanishes).
Every cell is either a single orbit of the adapted transformation group or
a one-parameter ("parametric") family of orbits, indexed by a free slot
``lam`` of its representative.

A cell is stored as the paper gives it, by its name and the full
conjunction of its defining conditions, so the cells are pairwise disjoint
and cover the parameter space; listing order is classification's decision
order.  The representative follows from the conditions: the highest chain
slot (b12, b14, b16, then b for odd n) required nonzero is 1 and the rest
of the chain 0; the first of b11, b01, b00 required nonzero is 1; behind
b11, b00 is ``lam`` if the chain is nonzero, else 1 exactly when the cell
requires delta != 0.  The cell is parametric iff that holds ``lam``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

#: placeholder used in representative patterns for the free orbit parameter
LAM = "lam"


@dataclass(frozen=True)
class SubsetSpec:
    name: str
    #: (slot, must_be_nonzero) pairs; slots not listed are unconstrained
    conditions: tuple[tuple[str, bool], ...]
    #: representative tuple over PARAM_SLOTS[n]; entries 0, 1 or LAM
    representative: tuple
    parametric: bool


#: parameter slot names, in tuple order, per family
PARAM_SLOTS: dict[int, tuple[str, ...]] = {
    4: ("b00", "b01", "b11", "b12"),
    5: ("b00", "b01", "b11", "b12", "b"),
    6: ("b00", "b01", "b11", "b12", "b14"),
    7: ("b00", "b01", "b11", "b12", "b14", "b"),
    8: ("b00", "b01", "b11", "b12", "b14", "b16"),
}


def _specs(n: int, rows) -> tuple[SubsetSpec, ...]:
    out = []
    for name, conds in rows:
        want = dict(conds)
        if not set(want) <= {*PARAM_SLOTS[n], "delta"}:
            raise DomainError(f"subset {name!r} not defined for n={n}")
        chain = [slot for slot in ("b12", "b14", "b16", "b") if want.get(slot)]
        lead = [slot for slot in ("b11", "b01", "b00") if want.get(slot)]
        # the top nonzero chain slot and the first nonzero lead slot are 1
        rep = dict.fromkeys(PARAM_SLOTS[n], 0) | dict.fromkeys(chain[-1:] + lead[:1], 1)
        if lead[:1] == ["b11"]:
            rep["b00"] = LAM if chain else int(want.get("delta", False))
        out.append(SubsetSpec(name, tuple(conds), tuple(rep.values()), LAM in rep.values()))
    return tuple(out)


SUBSETS: dict[int, tuple[SubsetSpec, ...]] = {
    4: _specs(4, [
        ("U_1", [("b11", True), ("b12", True)]),
        ("U_2", [("b11", True), ("b12", False), ("delta", True)]),
        ("U_3", [("b11", True), ("b12", False), ("delta", False)]),
        ("U_4", [("b11", False), ("b01", True), ("b12", True)]),
        ("U_5", [("b11", False), ("b01", True), ("b12", False)]),
        ("U_6", [("b11", False), ("b01", False), ("b00", True), ("b12", True)]),
        ("U_7", [("b11", False), ("b01", False), ("b00", True), ("b12", False)]),
        ("U_8", [("b11", False), ("b01", False), ("b00", False), ("b12", True)]),
        ("U_9", [("b11", False), ("b01", False), ("b00", False), ("b12", False)]),
    ]),
    5: _specs(5, [
        ("U_1", [("b", True), ("b11", True)]),
        ("U_2", [("b", True), ("b11", False), ("b01", True)]),
        ("U_3", [("b", True), ("b11", False), ("b01", False), ("b00", True)]),
        ("U_4", [("b", True), ("b11", False), ("b01", False), ("b00", False)]),
        ("U_5", [("b", False), ("b11", True), ("b12", True)]),
        ("U_6", [("b", False), ("b11", True), ("b12", False), ("delta", True)]),
        ("U_7", [("b", False), ("b11", True), ("b12", False), ("delta", False)]),
        ("U_8", [("b", False), ("b11", False), ("b01", True), ("b12", True)]),
        ("U_9", [("b", False), ("b11", False), ("b01", True), ("b12", False)]),
        ("U_10", [("b", False), ("b11", False), ("b01", False), ("b00", True), ("b12", True)]),
        ("U_11", [("b", False), ("b11", False), ("b01", False), ("b00", True), ("b12", False)]),
        ("U_12", [("b", False), ("b11", False), ("b01", False), ("b00", False), ("b12", True)]),
        ("U_13", [("b", False), ("b11", False), ("b01", False), ("b00", False), ("b12", False)]),
    ]),
    6: _specs(6, [
        ("U_1", [("b11", True), ("b14", True)]),
        ("U_2", [("b11", True), ("b14", False), ("b12", True)]),
        ("U_3", [("b11", True), ("b14", False), ("b12", False), ("delta", True)]),
        ("U_4", [("b11", True), ("b14", False), ("b12", False), ("delta", False)]),
        ("U_5", [("b11", False), ("b01", True), ("b14", True)]),
        ("U_6", [("b11", False), ("b01", True), ("b14", False), ("b12", True)]),
        ("U_7", [("b11", False), ("b01", True), ("b14", False), ("b12", False)]),
        ("U_8", [("b11", False), ("b01", False), ("b00", True), ("b14", True)]),
        ("U_9", [("b11", False), ("b01", False), ("b00", True), ("b14", False), ("b12", True)]),
        ("U_10", [("b11", False), ("b01", False), ("b00", True), ("b14", False), ("b12", False)]),
        ("U_11", [("b11", False), ("b01", False), ("b00", False), ("b14", True)]),
        ("U_12", [("b11", False), ("b01", False), ("b00", False), ("b14", False), ("b12", True)]),
        ("U_13", [("b11", False), ("b01", False), ("b00", False), ("b14", False), ("b12", False)]),
    ]),
    7: _specs(7, [
        ("U_1", [("b", True), ("b11", True)]),
        ("U_2", [("b", True), ("b11", False), ("b01", True)]),
        ("U_3", [("b", True), ("b11", False), ("b01", False), ("b00", True)]),
        ("U_4", [("b", True), ("b11", False), ("b01", False), ("b00", False)]),
        ("U_5", [("b", False), ("b14", True), ("b11", True)]),
        ("U_6", [("b", False), ("b14", True), ("b11", False), ("b01", True)]),
        ("U_7", [("b", False), ("b14", True), ("b11", False), ("b01", False), ("b00", True)]),
        ("U_8", [("b", False), ("b14", True), ("b11", False), ("b01", False), ("b00", False)]),
        ("U_9", [("b", False), ("b14", False), ("b12", True), ("b11", True)]),
        ("U_10", [("b", False), ("b14", False), ("b12", True), ("b11", False), ("b01", True)]),
        ("U_11", [("b", False), ("b14", False), ("b12", True), ("b11", False), ("b01", False), ("b00", True)]),
        ("U_12", [("b", False), ("b14", False), ("b12", True), ("b11", False), ("b01", False), ("b00", False)]),
        ("U_13", [("b", False), ("b14", False), ("b12", False), ("b11", True), ("delta", True)]),
        ("U_14", [("b", False), ("b14", False), ("b12", False), ("b11", True), ("delta", False)]),
        ("U_15", [("b", False), ("b14", False), ("b12", False), ("b11", False), ("b01", True)]),
        ("U_16", [("b", False), ("b14", False), ("b12", False), ("b11", False), ("b01", False), ("b00", True)]),
        ("U_17", [("b", False), ("b14", False), ("b12", False), ("b11", False), ("b01", False), ("b00", False)]),
    ]),
    8: _specs(8, [
        ("U_1", [("b16", True), ("b11", True)]),
        ("U_2", [("b16", True), ("b11", False), ("b01", True)]),
        ("U_3", [("b16", True), ("b11", False), ("b01", False), ("b00", True)]),
        ("U_4", [("b16", True), ("b11", False), ("b01", False), ("b00", False)]),
        ("U_5", [("b16", False), ("b14", True), ("b11", True)]),
        ("U_6", [("b16", False), ("b14", True), ("b11", False), ("b01", True)]),
        ("U_7", [("b16", False), ("b14", True), ("b11", False), ("b01", False), ("b00", True)]),
        ("U_8", [("b16", False), ("b14", True), ("b11", False), ("b01", False), ("b00", False)]),
        ("U_9", [("b16", False), ("b14", False), ("b12", True), ("b11", True)]),
        ("U_10", [("b16", False), ("b14", False), ("b12", True), ("b11", False), ("b01", True)]),
        ("U_11", [("b16", False), ("b14", False), ("b12", True), ("b11", False), ("b01", False), ("b00", True)]),
        ("U_12", [("b16", False), ("b14", False), ("b12", True), ("b11", False), ("b01", False), ("b00", False)]),
        ("U_13", [("b16", False), ("b14", False), ("b12", False), ("b11", True), ("delta", True)]),
        ("U_14", [("b16", False), ("b14", False), ("b12", False), ("b11", True), ("delta", False)]),
        ("U_15", [("b16", False), ("b14", False), ("b12", False), ("b11", False), ("b01", True)]),
        ("U_16", [("b16", False), ("b14", False), ("b12", False), ("b11", False), ("b01", False), ("b00", True)]),
        ("U_17", [("b16", False), ("b14", False), ("b12", False), ("b11", False), ("b01", False), ("b00", False)]),
    ]),
}


_SPECS = {(n, spec.name): spec for n in SUBSETS for spec in SUBSETS[n]}


def get_spec(n: int, name: str) -> SubsetSpec:
    try:
        return _SPECS[n, name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise DomainError(f"unknown subset {name!r} for n={n}") from None


def parametric_subsets(n: int) -> list[str]:
    return [s.name for s in SUBSETS[n] if s.parametric]
