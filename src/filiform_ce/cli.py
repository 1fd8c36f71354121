"""Command-line front end: every library operation behind one JSON pipe.

Exit codes separate the failure modes: 0 success, 1 a verification that
ran and failed (a table violating the bracket identity, a harness check
failing), 2 malformed input (bad JSON, unusable invocation), 3 inputs
that parse but fall outside the domain (unsupported rank, degenerate
transform, mismatched dimensions).  Only ``build --n/--seed`` (numpy's
PCG64 draw), ``check`` (ranks by SVD) and ``verify-paper`` load numpy; the
other verbs, ``build`` from JSON among them, run on closed forms.
"""

from __future__ import annotations

import argparse
import sys

from . import jsonio
from .action import act_on_params
from .classify import classify, isomorphic, representatives, warn_if_borderline
from .errors import FiliformError, InputFormatError
from .family import N_RANGE, _sparse_table, random_params, solve_leibniz_constraints

VERBS = (
    "build",
    "check",
    "act",
    "classify",
    "isomorphic",
    "representatives",
    "derive-constraints",
    "verify-paper",
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="filiform-ce",
        description="Construct, check, transform, and classify the central-extension family.",
    )
    ap.add_argument("verb", choices=VERBS, help="operation to run")
    ap.add_argument("--n", type=int, default=None, help=f"rank of the base algebra ({N_RANGE.start}..{N_RANGE[-1]})")
    ap.add_argument("--seed", type=int, default=None, help="random seed where applicable")
    ap.add_argument("--trials", type=int, default=100, help="sampling effort for verify-paper")
    ap.add_argument("--input", default="-", metavar="FILE|-", help="JSON input (default stdin)")
    ap.add_argument("--output", default="-", metavar="FILE|-", help="output path (default stdout)")
    ap.add_argument("--format", choices=("json", "table"), default="json", dest="fmt")
    return ap


def _read_input(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputFormatError(f"cannot read {path}: {exc}") from None
    return jsonio.loads(text, where=path if path != "-" else "stdin")


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _need_n(args) -> int:
    if args.n is None:
        raise InputFormatError(f"{args.verb} requires --n")
    return args.n


def _table_lines(payload, prefix: str = "") -> list[str]:
    """Generic flat rendering for payloads without a dedicated table form."""
    lines = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{prefix}{key}:")
                lines.extend(_table_lines(value, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.extend(_table_lines(value, prefix + "  "))
            else:
                lines.append(f"{prefix}- {value}")
    else:
        lines.append(f"{prefix}{payload}")
    return lines


def _render(payload, fmt: str) -> str:
    if fmt == "json":
        return jsonio.dumps(payload)
    return "\n".join(_table_lines(payload))


def _cmd_build(args) -> tuple[object, int]:
    if args.n is not None:
        p = random_params(args.n, seed=0 if args.seed is None else args.seed)
    else:
        p = jsonio.decode_params(_read_input(args.input))
    return jsonio._encode_sparse(p.n + 1, _sparse_table(p)), 0


def _cmd_check(args) -> tuple[object, int]:
    from .tensor import _normalized, is_filiform, leibniz_residual, lower_central_series

    t = jsonio.decode_tensor(_read_input(args.input))
    payload = {
        "leibniz_residual": leibniz_residual(t),
        "filiform": is_filiform(t),
        "series": lower_central_series(t),
    }
    # the verdict is taken on the table scaled by a power of two, so that
    # scaling the table by any power of two leaves it where it was
    ok = leibniz_residual(_normalized(t)[0]) <= 1e-9
    return payload, 0 if ok else 1


def _cmd_act(args) -> tuple[object, int]:
    obj = _read_input(args.input)
    if not isinstance(obj, dict) or set(obj) != {"params", "transform"}:
        raise InputFormatError('act expects an object with keys "params" and "transform"')
    p = jsonio.decode_params(obj["params"])
    t = jsonio.decode_transform(obj["transform"])
    return jsonio.encode_params(act_on_params(t, p)), 0


def _cmd_classify(args) -> tuple[object, int]:
    p = jsonio.decode_params(_read_input(args.input))
    warning = warn_if_borderline(p)
    if warning:
        print(f"warning: {warning}", file=sys.stderr)
    return jsonio.encode_label(classify(p)), 0


def _cmd_isomorphic(args) -> tuple[object, int]:
    obj = _read_input(args.input)
    if not isinstance(obj, dict) or set(obj) != {"first", "second"}:
        raise InputFormatError('isomorphic expects an object with keys "first" and "second"')
    p = jsonio.decode_params(obj["first"])
    q = jsonio.decode_params(obj["second"])
    same, witness = isomorphic(p, q)
    return {
        "isomorphic": same,
        "witness": None if witness is None else jsonio.encode_transform(witness),
    }, 0


def _cmd_representatives(args) -> tuple[object, int]:
    n = _need_n(args)
    rows = [
        {
            "subset": name,
            "representative": jsonio.encode_params(rep),
            "parametric": parametric,
        }
        for name, rep, parametric in representatives(n)
    ]
    return {"n": n, "representatives": rows}, 0


def _cmd_derive_constraints(args) -> tuple[object, int]:
    return jsonio.encode_constraints(solve_leibniz_constraints(_need_n(args))), 0


def _dispatch(args) -> tuple[str, int]:
    if args.verb == "verify-paper":
        from .verify import verify_all

        report = verify_all(
            seed=1 if args.seed is None else args.seed,
            trials=args.trials,
        )
        text = report.to_json() if args.fmt == "json" else report.to_text()
        return text, 0 if report.passed else 1
    handler = {
        "build": _cmd_build,
        "check": _cmd_check,
        "act": _cmd_act,
        "classify": _cmd_classify,
        "isomorphic": _cmd_isomorphic,
        "representatives": _cmd_representatives,
        "derive-constraints": _cmd_derive_constraints,
    }[args.verb]
    payload, code = handler(args)
    return _render(payload, args.fmt), code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = _dispatch(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FiliformError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    _write_output(args.output, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
