"""Seeded inputs for the benchmark workloads.

Everything random is drawn here from ``numpy.random.default_rng`` streams
keyed by the benchmark seed; the library only ever receives the resulting
parameter tuples, transforms and JSON payloads, never a seed.

Members are spread over every classification cell of every rank (69 cells),
each nonzero slot gets a magnitude in [0.5, 2] and a uniformly random
complex phase.  Only the five single-point cells (the zero member of each
rank) give the same member twice, so 5/69 (7%) of members repeat an earlier
one.  ``scaled=True`` multiplies the whole tuple by 10^k with k
uniform in [-30, 30]; those members feed the robustness probe only.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from filiform_ce.action import AdaptedTransform, act_on_params
from filiform_ce.family import ExtensionParams, params_from_tuple
from filiform_ce.subsets import PARAM_SLOTS, SUBSETS

RANKS = tuple(sorted(SUBSETS))
CELLS: tuple[tuple[int, str], ...] = tuple(
    (n, spec.name) for n in RANKS for spec in SUBSETS[n]
)

# Keep generated members away from the removable singularities that the
# normal-form routines divide by (the margins ``random_params`` documents).
_MARGIN = 0.05
_SCALE_EXP = 30


@dataclass(frozen=True)
class Pair:
    """One classify-stream / tensor-route input with its ground truth."""

    p: ExtensionParams
    cell: str
    q: ExtensionParams
    q_isomorphic: bool


def _nonzero(rng) -> complex:
    return float(rng.uniform(0.5, 2.0)) * cmath.exp(2j * cmath.pi * float(rng.random()))


def _clears_margins(p: ExtensionParams) -> bool:
    if p.n % 2 == 1 and p.b != 0:
        if p.b11 != 0 and abs(2 * p.b11 - p.b01 * p.b) < _MARGIN:
            return False
        if p.b11 == 0 and p.b01 != 0 and abs(p.b01 - p.b00 * p.b) < _MARGIN:
            return False
    if p.n == 8 and p.b16 == 0 and p.b14 != 0 and p.b11 != 0 and abs(p.delta) < _MARGIN:
        return False
    return True


def draw_member(rng, n: int, cell: str) -> ExtensionParams:
    """A member of one cell: required zeros exact, other slots random."""
    conditions = dict(next(s for s in SUBSETS[n] if s.name == cell).conditions)
    while True:
        values = {
            slot: 0j if conditions.get(slot) is False else _nonzero(rng)
            for slot in PARAM_SLOTS[n]
        }
        if conditions.get("delta") is False:
            values["b00"] = values["b01"] ** 2 / (4 * values["b11"])
        p = params_from_tuple(n, [values[s] for s in PARAM_SLOTS[n]])
        if conditions.get("delta") is True and abs(p.delta) < 2 * _MARGIN:
            continue
        if _clears_margins(p):
            return p


def draw_transform(rng, p: ExtensionParams) -> AdaptedTransform:
    """A nondegenerate adapted transform valid at ``p``."""
    while True:
        t = AdaptedTransform(
            p.n,
            _nonzero(rng),
            complex(rng.uniform(-2.0, 2.0)),
            (_nonzero(rng),) + tuple(complex(rng.uniform(-2.0, 2.0)) for _ in range(p.n - 3)),
        )
        if abs(t.A0 + t.A1 * p.b) >= _MARGIN:
            return t


def scale_member(rng, p: ExtensionParams) -> ExtensionParams:
    """``p`` times 10^k, k uniform in [-30, 30]."""
    factor = 10.0 ** int(rng.integers(-_SCALE_EXP, _SCALE_EXP + 1))
    return params_from_tuple(p.n, [v * factor for v in p.as_tuple()])


def cell_order(seed: int) -> list[tuple[int, str]]:
    """The seed's fixed permutation of all 69 cells, cycled by ``pairs``."""
    rng = np.random.default_rng([seed, 0])
    return [CELLS[i] for i in rng.permutation(len(CELLS))]


def pairs(seed: int, batch: int, size: int, scaled: bool = False) -> list[Pair]:
    """Batch ``batch`` of the seed's input stream.

    Member ``j`` of batch ``b`` comes from cell ``order[(b * size + j) % 69]``.
    Every second member's partner ``q`` is an image ``act_on_params(t, p)``
    (ground truth True); the others are a member of another cell of the same
    rank (ground truth False).
    """
    order = cell_order(seed)
    rng = np.random.default_rng([seed, 1 + int(scaled), batch])
    out = []
    for j in range(size):
        n, cell = order[(batch * size + j) % len(order)]
        p = draw_member(rng, n, cell)
        if scaled:
            p = scale_member(rng, p)
        if j % 2 == 0:
            q, same = act_on_params(draw_transform(rng, p), p), True
        else:
            others = [s.name for s in SUBSETS[n] if s.name != cell]
            q, same = draw_member(rng, n, others[int(rng.integers(len(others)))]), False
        out.append(Pair(p, cell, q, same))
    return out
