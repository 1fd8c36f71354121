"""Tolerance policy used across the package.

Subspace ranks use a singular-value cutoff relative to the largest singular
value, and a scalar counts as "zero" for classification flags when its
magnitude is below ``1e-9`` times the relevant scale.  Fixed cutoffs of a
single test (``change_basis``, ``read_params``) sit next to that test.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import DomainError

#: Relative singular-value threshold for rank decisions.
RANK_RTOL = 1e-8

#: Relative magnitude below which a parameter counts as zero for flags.
ZERO_FLAG_RTOL = 1e-9

#: Classification flag margins below this trigger a CLI warning.
FLAG_WARN_MARGIN = 1e-6


def require_finite(values, what: str) -> None:
    """Reject NaN/infinity before they enter any tensor or parameter.

    ``values`` is an ndarray or an iterable of Python numbers; a complex
    value is finite only when both its real and imaginary parts are.
    """
    if isinstance(values, np.ndarray):
        finite = np.isfinite(values).all()
    else:
        finite = all(map(cmath.isfinite, values))
    if not finite:
        raise DomainError(f"{what} must be finite (no NaN or infinity)")
