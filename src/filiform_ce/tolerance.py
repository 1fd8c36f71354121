"""Tolerance policy used across the package.

Subspace ranks use a singular-value cutoff relative to the largest singular
value, and a scalar counts as "zero" for classification flags when its
magnitude is below ``1e-9`` times the relevant scale.  Fixed cutoffs of a
single test (``change_basis``, ``read_params``) sit next to that test.
"""

from __future__ import annotations

import numpy as np

#: Relative singular-value threshold for rank decisions.
RANK_RTOL = 1e-8

#: Relative magnitude below which a parameter counts as zero for flags.
ZERO_FLAG_RTOL = 1e-9

#: Classification flag margins below this trigger a CLI warning.
FLAG_WARN_MARGIN = 1e-6


def require_finite(values, what: str) -> None:
    """Reject NaN/infinity before they enter any tensor or parameter."""
    arr = np.asarray(values, dtype=complex)
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        from .errors import DomainError

        raise DomainError(f"{what} must be finite (no NaN or infinity)")
