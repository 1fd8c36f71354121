"""One-dimensional central extensions of the graded filiform algebras.

The library builds the multiplication tables of the extension family,
solves the bracket-identity constraints on their coefficients, applies
adapted basis changes in closed form, and classifies every member up to
isomorphism -- with a verification harness that re-derives each of those
facts from independent numerical routes.

The closed-form modules load eagerly and without numpy; the names of the
tensor route and the harness import their modules, and numpy, on first use.

The function ``classify`` shadows the submodule of that name, so
``import filiform_ce.classify as m`` binds the function.  Reach the module
with ``from filiform_ce.classify import ...`` or
``sys.modules["filiform_ce.classify"]``.
"""

import importlib

from .action import (
    AdaptedTransform,
    act_on_params,
    adapted_matrix,
    compose,
    elementary_factors,
    elementary_to_adapted,
    identity_transform,
    inverse_transform,
    random_transform,
    read_params,
    sigma,
    tau,
    transform_from_matrix,
    upsilon,
)
from .classify import (
    InvariantReport,
    OrbitLabel,
    canonicalize,
    classify,
    isomorphic,
    orbit_invariant,
    representative_params,
    representatives,
    subset_of,
    warn_if_borderline,
)
from .errors import (
    CanonicalizationError,
    DegenerateTransformError,
    DomainError,
    FiliformError,
    InputFormatError,
    SingularMatrixError,
    TableShapeError,
)
from .family import (
    ConstraintReport,
    ExtensionParams,
    Relation,
    build_mu,
    build_table,
    params_from_tuple,
    random_params,
    solve_leibniz_constraints,
)

#: names served by ``__getattr__`` on first use, from the modules that load
#: numpy: the tensor route and the verification harness
_LAZY = dict.fromkeys(
    ("StructureTensor", "bracket", "change_basis", "from_entries", "is_filiform", "leibniz_residual",
     "leibniz_residual_tensor", "lower_central_series", "worst_leibniz_triple"),
    "tensor",
) | dict.fromkeys(("MANIFEST", "CheckResult", "VerificationReport", "verify_all"), "verify")


def __getattr__(name: str):
    """Import the module behind a lazy name once, and keep the name (PEP 562)."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "AdaptedTransform",
    "CanonicalizationError",
    "CheckResult",
    "ConstraintReport",
    "DegenerateTransformError",
    "DomainError",
    "ExtensionParams",
    "FiliformError",
    "InputFormatError",
    "InvariantReport",
    "MANIFEST",
    "OrbitLabel",
    "Relation",
    "SingularMatrixError",
    "StructureTensor",
    "TableShapeError",
    "VerificationReport",
    "act_on_params",
    "adapted_matrix",
    "bracket",
    "build_mu",
    "build_table",
    "canonicalize",
    "change_basis",
    "classify",
    "compose",
    "elementary_factors",
    "elementary_to_adapted",
    "from_entries",
    "identity_transform",
    "inverse_transform",
    "is_filiform",
    "isomorphic",
    "leibniz_residual",
    "leibniz_residual_tensor",
    "lower_central_series",
    "orbit_invariant",
    "params_from_tuple",
    "random_params",
    "random_transform",
    "read_params",
    "representative_params",
    "representatives",
    "sigma",
    "solve_leibniz_constraints",
    "subset_of",
    "tau",
    "transform_from_matrix",
    "upsilon",
    "verify_all",
    "warn_if_borderline",
    "worst_leibniz_triple",
]
