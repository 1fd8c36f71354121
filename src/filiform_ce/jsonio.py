"""Strict JSON wire format for every object the command line moves.

One canonical serialization keeps golden files diffable: complex numbers
are always two-element ``[re, im]`` arrays, optional values are ``null``,
and decoders reject unknown or missing fields outright.  Structural
problems (wrong types, bad shapes, stray keys) raise InputFormatError;
values that are well-formed JSON but violate domain rules (a rank outside
``N_RANGE``, a nonzero top coefficient at even rank) surface as DomainError from
the constructors, so the two failure modes stay distinguishable.
"""

from __future__ import annotations

import json

import numpy as np

from .action import AdaptedTransform
from .classify import OrbitLabel
from .errors import FiliformError, InputFormatError
from .family import ConstraintReport, ExtensionParams
from .tensor import StructureTensor

__all__ = [
    "dump_complex",
    "load_complex",
    "encode_params",
    "decode_params",
    "encode_tensor",
    "decode_tensor",
    "encode_transform",
    "decode_transform",
    "encode_label",
    "encode_constraints",
    "loads",
    "dumps",
]


def dump_complex(z) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def load_complex(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    ):
        raise InputFormatError(f"{where}: expected a [re, im] pair, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def _opt_complex(z) -> list[float] | None:
    return None if z is None else dump_complex(z)


def _require_keys(obj, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(obj, dict):
        raise InputFormatError(f"{where}: expected an object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    extra = [k for k in obj if k not in keys]
    if missing or extra:
        raise InputFormatError(
            f"{where}: missing keys {missing or 'none'}, unknown keys {extra or 'none'}"
        )


def _int_field(obj, key: str, where: str) -> int:
    v = obj[key]
    if not isinstance(v, int) or isinstance(v, bool):
        raise InputFormatError(f"{where}.{key}: expected an integer, got {v!r}")
    return v


# ---------------------------------------------------------------------------
# extension parameters


def encode_params(p: ExtensionParams) -> dict:
    return {
        "n": p.n,
        "b00": dump_complex(p.b00),
        "b01": dump_complex(p.b01),
        "b11": dump_complex(p.b11),
        "b_even": [dump_complex(z) for z in p.b_even],
        "b": dump_complex(p.b),
    }


def decode_params(obj) -> ExtensionParams:
    _require_keys(obj, ("n", "b00", "b01", "b11", "b_even", "b"), "params")
    n = _int_field(obj, "n", "params")
    if not isinstance(obj["b_even"], list):
        raise InputFormatError("params.b_even: expected an array")
    return ExtensionParams(
        n,
        load_complex(obj["b00"], "params.b00"),
        load_complex(obj["b01"], "params.b01"),
        load_complex(obj["b11"], "params.b11"),
        tuple(
            load_complex(v, f"params.b_even[{i}]") for i, v in enumerate(obj["b_even"])
        ),
        load_complex(obj["b"], "params.b"),
    )


# ---------------------------------------------------------------------------
# structure tensors


def encode_tensor(t: StructureTensor) -> dict:
    d = t.dim
    gamma = [
        [[dump_complex(t.gamma[i, j, k]) for k in range(d)] for j in range(d)]
        for i in range(d)
    ]
    return {"dim": d, "gamma": gamma}


def decode_tensor(obj) -> StructureTensor:
    _require_keys(obj, ("dim", "gamma"), "tensor")
    d = _int_field(obj, "dim", "tensor")
    if d < 1:
        raise InputFormatError(f"tensor.dim: expected a positive integer, got {d}")
    rows = obj["gamma"]
    if not isinstance(rows, list) or len(rows) != d:
        raise InputFormatError(f"tensor.gamma: expected {d} rows")
    gamma = np.zeros((d, d, d), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != d:
            raise InputFormatError(f"tensor.gamma[{i}]: expected {d} columns")
        for j, col in enumerate(row):
            if not isinstance(col, list) or len(col) != d:
                raise InputFormatError(f"tensor.gamma[{i}][{j}]: expected {d} entries")
            for k, v in enumerate(col):
                gamma[i, j, k] = load_complex(v, f"tensor.gamma[{i}][{j}][{k}]")
    return StructureTensor(gamma)


# ---------------------------------------------------------------------------
# adapted transforms


def encode_transform(t: AdaptedTransform) -> dict:
    return {
        "n": t.n,
        "A0": dump_complex(t.A0),
        "A1": dump_complex(t.A1),
        "B": [dump_complex(z) for z in t.B],
    }


def decode_transform(obj) -> AdaptedTransform:
    _require_keys(obj, ("n", "A0", "A1", "B"), "transform")
    n = _int_field(obj, "n", "transform")
    if not isinstance(obj["B"], list):
        raise InputFormatError("transform.B: expected an array")
    return AdaptedTransform(
        n,
        load_complex(obj["A0"], "transform.A0"),
        load_complex(obj["A1"], "transform.A1"),
        tuple(load_complex(v, f"transform.B[{i}]") for i, v in enumerate(obj["B"])),
    )


# ---------------------------------------------------------------------------
# classification output


def encode_label(label: OrbitLabel) -> dict:
    inv = label.invariants
    if inv is None:
        raise FiliformError("cannot encode a label without its invariant report")
    return {
        "n": label.n,
        "subset": label.subset,
        "representative": encode_params(label.representative),
        "lambda": _opt_complex(label.lam),
        "witness": encode_transform(label.witness),
        "orbit_value": _opt_complex(inv.orbit_value),
        "delta": dump_complex(inv.delta),
        "flag_margin": float(inv.flag_margin),
    }


def encode_constraints(report: ConstraintReport) -> dict:
    return {
        "n": report.n,
        "total_unknowns": report.total_unknowns,
        "rank": report.rank,
        "free_count": report.free_count,
        "free_labels": list(report.free_labels),
        "relations": [
            {
                "target": r.target,
                "terms": [[label, dump_complex(c)] for label, c in r.terms],
            }
            for r in report.implied_relations
        ],
        "signs": [[row, sign] for row, sign in sorted(report.sign.items())],
    }


# ---------------------------------------------------------------------------
# top-level text helpers


def loads(text: str, where: str = "input"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{where}: malformed JSON: {exc}") from None


def dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)
