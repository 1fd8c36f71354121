"""Import contract: the closed-form path runs without numpy.

Each check runs in a fresh interpreter, since this one has long loaded
numpy and every submodule.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import filiform_ce as fc

SRC = Path(__file__).resolve().parents[1] / "src"

#: the package's public names, as they stood before its imports went lazy
PUBLIC = [
    "AdaptedTransform", "CanonicalizationError", "CheckResult", "ConstraintReport",
    "DegenerateTransformError", "DomainError", "ExtensionParams", "FiliformError",
    "InputFormatError", "InvariantReport", "MANIFEST", "OrbitLabel", "Relation",
    "SingularMatrixError", "StructureTensor", "TableShapeError", "VerificationReport",
    "act_on_params", "adapted_matrix", "bracket", "build_mu", "build_table",
    "canonicalize", "change_basis", "classify", "compose", "elementary_factors",
    "elementary_to_adapted", "from_entries", "identity_transform", "inverse_transform",
    "is_filiform", "isomorphic", "leibniz_residual", "leibniz_residual_tensor",
    "lower_central_series", "orbit_invariant", "params_from_tuple", "random_params",
    "random_transform", "read_params", "representative_params", "representatives",
    "sigma", "solve_leibniz_constraints", "subset_of", "tau", "transform_from_matrix",
    "upsilon", "verify_all", "warn_if_borderline", "worst_leibniz_triple",
]

PARAMS = {"n": 5, "b00": [0.7, 0], "b01": [-1.2, 0], "b11": [1.3, 0], "b_even": [[0.9, 0]], "b": [1.1, 0]}
TRANSFORM = {"n": 5, "A0": [1.5, 0], "A1": [0.3, 0], "B": [[0.8, 0], [0.2, 0], [-0.4, 0]]}

CLOSED_FORM_CALLS = {
    "build": (["build"], PARAMS),
    "act": (["act"], {"params": PARAMS, "transform": TRANSFORM}),
    "classify": (["classify"], PARAMS),
    "isomorphic": (["isomorphic"], {"first": PARAMS, "second": PARAMS}),
    "representatives": (["representatives", "--n", "8"], None),
    "derive-constraints": (["derive-constraints", "--n", "9"], None),
}


def run_fresh(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_package_import_loads_no_numpy():
    out = run_fresh(
        "import sys, json, filiform_ce\n"
        "print(json.dumps([m for m in ('numpy', 'filiform_ce.verify', 'filiform_ce.tensor') if m in sys.modules]))"
    )
    assert json.loads(out) == []


@pytest.mark.parametrize("verb", CLOSED_FORM_CALLS)
def test_closed_form_verb_loads_no_numpy(verb):
    argv, stdin = CLOSED_FORM_CALLS[verb]
    out = run_fresh(
        "import io, json, sys\n"
        "from filiform_ce import cli\n"
        f"sys.stdin = io.StringIO({json.dumps(json.dumps(stdin))})\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        f"code = cli.main({argv!r})\n"
        "sys.stdout = out\n"
        "print(json.dumps([code, 'numpy' in sys.modules]))"
    )
    assert json.loads(out) == [0, False]


#: ``build`` inputs that fail, and the exit code each must give: 2 for
#: malformed input, 3 for input that parses but leaves the family
BUILD_FAILURES = [
    ("{oops", 2),
    (json.dumps({**PARAMS, "n": 5.0}), 2),
    (json.dumps({**PARAMS, "b00": [0.7]}), 2),
    (json.dumps({**PARAMS, "n": 9, "b_even": [[0.9, 0], [0, 0], [0, 0]]}), 3),
    (json.dumps({**PARAMS, "b01": [1e400, 0]}), 3),
    (json.dumps({**PARAMS, "n": 4}), 3),  # b = 1.1 at even n
]


def test_build_exit_codes_load_no_numpy():
    out = run_fresh(
        "import io, json, sys\n"
        "from filiform_ce import cli\n"
        "seen = []\n"
        f"for text in {[text for text, _ in BUILD_FAILURES]!r}:\n"
        "    sys.stdin, sys.stderr = io.StringIO(text), io.StringIO()\n"
        "    code = cli.main(['build'])\n"
        "    seen.append([code, sys.stderr.getvalue().startswith('error: '), 'numpy' in sys.modules])\n"
        "sys.stderr = sys.__stderr__\n"
        "print(json.dumps(seen))"
    )
    assert json.loads(out) == [[code, True, False] for _, code in BUILD_FAILURES]


def test_elementary_factors_loads_no_numpy():
    out = run_fresh(
        "import json, sys, filiform_ce as fc\n"
        "t = fc.AdaptedTransform(7, 1.5, 0.3, (0.8, 0.2, -0.4, 0.6, 1.1))\n"
        "kinds = [f.kind for f in fc.elementary_factors(t)]\n"
        "print(json.dumps([kinds, 'numpy' in sys.modules]))"
    )
    assert json.loads(out) == [["tau", "sigma", "sigma", "sigma", "sigma", "upsilon"], False]


def test_public_names_unchanged_and_resolve():
    assert fc.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(fc, name) is not None, name
    out = run_fresh(
        "import json, filiform_ce as fc\n"
        "print(json.dumps([sorted(set(fc.__all__) - set(dir(fc))), "
        "[n for n in fc.__all__ if getattr(fc, n, None) is None]]))"
    )
    assert json.loads(out) == [[], []]


def test_lazy_name_is_the_module_attribute():
    out = run_fresh(
        "import json, sys, filiform_ce as fc\n"
        "print(json.dumps([fc.verify_all is sys.modules['filiform_ce.verify'].verify_all, "
        "fc.StructureTensor is sys.modules['filiform_ce.tensor'].StructureTensor, "
        "hasattr(fc, 'no_such_name')]))"
    )
    assert json.loads(out) == [True, True, False]


def test_classify_stays_the_function():
    # the submodule classify loads eagerly, so importing the lazy modules and
    # the CLI never rebinds the package attribute to it
    out = run_fresh(
        "import inspect, json, sys\n"
        "import filiform_ce as fc, filiform_ce.verify, filiform_ce.tensor, filiform_ce.cli\n"
        "print(json.dumps([inspect.isfunction(fc.classify), "
        "fc.classify is sys.modules['filiform_ce.classify'].classify]))"
    )
    assert json.loads(out) == [True, True]
