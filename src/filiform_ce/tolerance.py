"""Tolerance policy used across the package.

Subspace ranks in the tensor layer use a singular-value cutoff
(``RANK_RTOL``) relative to the largest singular value; the constraint
solve is exact and needs none.  A scalar counts as "zero" for
classification flags when its magnitude is below ``1e-9`` times the
relevant scale.  Fixed cutoffs of a single test (``change_basis``,
``read_params``) sit next to that test.  Nothing here loads numpy: the
tensor layer checks its own arrays for finiteness.
"""

from __future__ import annotations

import cmath

from .errors import DomainError

#: Relative singular-value threshold for the rank decisions in ``tensor``.
RANK_RTOL = 1e-8

#: Relative magnitude below which a parameter counts as zero for flags.
ZERO_FLAG_RTOL = 1e-9

#: Classification flag margins below this trigger a CLI warning.
FLAG_WARN_MARGIN = 1e-6


def require_finite(values, what: str) -> None:
    """Reject NaN/infinity before they enter any parameter or transform.

    ``values`` is an iterable of Python numbers; a complex value is finite
    only when both its real and imaginary parts are.
    """
    if not all(map(cmath.isfinite, values)):
        raise DomainError(f"{what} must be finite (no NaN or infinity)")
