"""Tolerance policy used across the package.

Approximate equality is ``|a - b| <= tol_abs + tol_rel * max(|a|, |b|)``
with defaults ``tol_abs = 1e-12`` and ``tol_rel = 1e-9``.  Subspace ranks use
a singular-value cutoff relative to the largest singular value, and a scalar
counts as "zero" for classification flags when its magnitude is below
``1e-9`` times the relevant scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Relative singular-value threshold for rank decisions.
RANK_RTOL = 1e-8

#: Relative magnitude below which a parameter counts as zero for flags.
ZERO_FLAG_RTOL = 1e-9

#: Classification flag margins below this trigger a CLI warning.
FLAG_WARN_MARGIN = 1e-6


@dataclass(frozen=True)
class Tolerance:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-9

    def close(self, a: complex, b: complex) -> bool:
        a, b = complex(a), complex(b)
        return abs(a - b) <= self.abs_tol + self.rel_tol * max(abs(a), abs(b))

    def allclose(self, a, b) -> bool:
        a = np.asarray(a, dtype=complex)
        b = np.asarray(b, dtype=complex)
        if a.shape != b.shape:
            return False
        bound = self.abs_tol + self.rel_tol * np.maximum(np.abs(a), np.abs(b))
        return bool(np.all(np.abs(a - b) <= bound))


DEFAULT_TOL = Tolerance()


def require_finite(values, what: str) -> None:
    """Reject NaN/infinity before they enter any tensor or parameter."""
    arr = np.asarray(values, dtype=complex)
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        from .errors import DomainError

        raise DomainError(f"{what} must be finite (no NaN or infinity)")
