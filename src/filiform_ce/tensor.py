"""Dense structure-constant tensors and the generic algebra kernel.

An algebra with basis ``e_0 .. e_{d-1}`` is stored as the rank-3 array
``gamma`` with ``gamma[i, j, k]`` the coefficient of ``e_k`` in the product
``[e_i, e_j]``.  Everything here is generic over that representation: the
bilinear product, the Leibniz-identity residual, basis changes, the lower
central series and the filiform test.

Every contraction is a chain of pairwise matrix products (``@``),
so a basis change costs O(d^4) rather than the O(d^6) of summing over all
four operands at once (the contraction-order idea of Smith & Gray, JOSS 2018).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularMatrixError
from .tolerance import RANK_RTOL, require_finite


@dataclass(frozen=True)
class StructureTensor:
    """Immutable d x d x d array of structure constants."""

    gamma: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.gamma, dtype=complex)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise DomainError(f"structure tensor must be cubic, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise DomainError("structure tensor needs a positive dimension")
        require_finite(arr, "structure constants")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "gamma", arr)

    @property
    def dim(self) -> int:
        return self.gamma.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureTensor):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self.gamma, other.gamma))

    def __repr__(self) -> str:
        return f"StructureTensor(dim={self.dim}, nnz={int(np.count_nonzero(self.gamma))})"

    def scale(self) -> float:
        """Largest entry magnitude (1.0 for the zero tensor)."""
        m = float(np.max(np.abs(self.gamma))) if self.gamma.size else 0.0
        return m if m > 0 else 1.0


def from_entries(dim: int, entries: dict[tuple[int, int, int], complex]) -> StructureTensor:
    """Build a tensor from a sparse ``{(i, j, k): value}`` description."""
    gamma = np.zeros((dim, dim, dim), dtype=complex)
    for (i, j, k), v in entries.items():
        if not all(0 <= a < dim for a in (i, j, k)):
            raise DomainError(f"index {(i, j, k)} out of range for dimension {dim}")
        gamma[i, j, k] = v
    return StructureTensor(gamma)


def bracket(t: StructureTensor, x, y) -> np.ndarray:
    """Product of two coefficient vectors: ``sum x_i y_j gamma[i, j, :]``."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != (t.dim,) or y.shape != (t.dim,):
        raise DomainError(
            f"coefficient vectors must have length {t.dim}, got {x.shape} and {y.shape}"
        )
    d = t.dim
    return y @ (x @ t.gamma.reshape(d, d * d)).reshape(d, d)


def leibniz_residual_tensor(t: StructureTensor) -> np.ndarray:
    """Defect of ``[x,[y,z]] = [[x,y],z] - [[x,z],y]`` over all basis triples.

    Entry ``[i, j, k, m]`` is the e_m-component of
    ``[e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j]``.
    """
    d = t.dim
    g = t.gamma
    products = g.reshape(d * d, d)  # row (j, k) holds [e_j, e_k]
    # [e_i, [e_j, e_k]], computed in the order (j, k, i, m)
    inner_right = (products @ g.transpose(1, 0, 2).reshape(d, d * d)).reshape(d, d, d, d)
    left_first = (products @ g.reshape(d, d * d)).reshape(d, d, d, d)  # [[e_i, e_j], e_k]
    # [[e_i, e_k], e_j] is left_first with its middle indices swapped
    return inner_right.transpose(2, 0, 1, 3) - left_first + left_first.transpose(0, 2, 1, 3)


def leibniz_residual(t: StructureTensor) -> float:
    """Worst violation of the Leibniz identity over basis triples.

    Returns ``max_{i,j,k} || [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j] ||_inf``;
    a value of zero (up to tolerance) characterizes the identity.
    """
    return float(np.max(np.abs(leibniz_residual_tensor(t))))


def worst_leibniz_triple(t: StructureTensor) -> tuple[tuple[int, int, int], float]:
    """Basis triple (i, j, k) realizing the largest Leibniz defect, and its size."""
    r = np.abs(leibniz_residual_tensor(t))
    i, j, k, _ = np.unravel_index(int(np.argmax(r)), r.shape)
    return (int(i), int(j), int(k)), float(np.max(r[i, j, k]))


def change_basis(t: StructureTensor, g) -> StructureTensor:
    """Re-express the algebra in the basis given by the columns of ``g``.

    The new basis vector ``u_i`` has old-basis coordinates ``g[:, i]``; the
    returned tensor holds ``[u_i, u_j]`` expanded over the ``u`` basis.  This
    is a right action on tensors: transforming by ``h`` and then by ``g``
    equals transforming once by the matrix product ``h @ g``.

    The accuracy of the result is governed by the condition number of ``g``
    after its rows and columns are scaled to peak near 1 (see
    ``_scaled_inverse``), not by that of ``g`` itself: basis vectors spread
    over many orders of magnitude cost nothing, nearly dependent ones do.
    A lower triangular ``g``, such as every adapted basis change, skips that
    rank test and is inverted by forward substitution (``_lower_inverse``).
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (t.dim, t.dim):
        raise DomainError(f"basis-change matrix must be {t.dim}x{t.dim}, got {g.shape}")
    require_finite(g, "basis-change matrix")
    ginv = _scaled_inverse(g) if np.triu(g, 1).any() else _lower_inverse(g)
    d = t.dim
    # sum_{a,b,l} g[a,i] g[b,j] gamma[a,b,l] ginv[k,l], summing a, then b, then l
    moved = (g.T @ t.gamma.reshape(d, d * d)).reshape(d, d, d)
    moved = g.T @ moved
    moved = moved.reshape(d * d, d) @ ginv.T
    return StructureTensor(moved.reshape(d, d, d))


def _scaled_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of ``g`` by way of ``g = diag(2**r) @ h @ diag(2**c)``.

    Witnesses scale basis vectors by powers of A0, so the rows and columns of
    ``g`` may differ by many orders of magnitude.  Rows, then columns, are
    scaled by powers of two to peak in [0.5, 1); the relative rank test and
    the inversion run on ``h``, and ``inv(g) = diag(2**-c) @ inv(h) @
    diag(2**-r)`` is rescaled exactly.  A zero row or column is singular
    outright.  Since the scales are powers of two, contracting with ``g``
    rounds exactly as contracting with ``h`` would.
    """
    h = g
    exps = []
    for axis in (1, 0):
        peak = np.max(np.abs(h), axis=axis, keepdims=True)
        if not peak.all():
            raise SingularMatrixError("basis-change matrix is singular")
        _, e = np.frexp(peak)
        h = _times_power_of_two(h, -e)
        exps.append(e)
    s = np.linalg.svd(h, compute_uv=False)
    if s[-1] <= 1e-12 * s[0]:
        raise SingularMatrixError("basis-change matrix is singular")
    r, c = exps
    return _times_power_of_two(np.linalg.inv(h), -(c.T + r.T))


def _lower_inverse(g: np.ndarray) -> np.ndarray:
    """Inverse of a lower triangular ``g`` by forward substitution, row by row.

    Only an exact zero on the diagonal is singular.  A witness with a
    diagonal near 1e-30 under entries near 1 in its e_n row looks rank
    deficient to the scaled singular-value test, yet substitution inverts it
    to working accuracy (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 8).
    """
    if not np.diagonal(g).all():
        raise SingularMatrixError("basis-change matrix is singular")
    inv = np.zeros_like(g)
    for i in range(len(g)):
        inv[i] = -(g[i, :i] @ inv[:i])
        inv[i, i] += 1
        inv[i] /= g[i, i]
    return inv


def _times_power_of_two(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """``a * 2**e`` entrywise, exact unless the result leaves the float range."""
    out = np.empty_like(a)
    np.ldexp(a.real, e, out=out.real)
    np.ldexp(a.imag, e, out=out.imag)
    return out


def _row_space(rows: np.ndarray, floor: float) -> tuple[int, np.ndarray]:
    """Rank and an orthonormal basis of the row space of a non-empty matrix,
    by SVD thresholding.

    ``floor`` is an absolute cutoff below which singular values never count,
    whatever the leading one is; without it a matrix consisting entirely of
    rounding dust would be ranked against its own dust scale.
    """
    _, s, vh = np.linalg.svd(rows)
    if s[0] <= floor:
        return 0, np.zeros((0, rows.shape[1]), dtype=complex)
    rank = int(np.sum(s > max(RANK_RTOL * s[0], floor)))
    return rank, vh[:rank]


def lower_central_series(t: StructureTensor) -> list[int]:
    """Dimensions of the descending chain of product subspaces.

    Entry ``0`` is the full dimension; each next entry is the dimension of the
    span of all products with the previous term on the left and the whole
    algebra on the right.  Stops once the dimension hits zero or stabilizes.
    """
    d = t.dim
    dims = [d]
    basis = np.eye(d, dtype=complex)
    floor = RANK_RTOL * max(1.0, float(np.max(np.abs(t.gamma))))
    while True:
        # products [v, e_j] for v in the current term's basis
        products = (basis @ t.gamma.reshape(d, d * d)).reshape(-1, d)
        rank, basis = _row_space(products, floor=floor)
        dims.append(rank)
        if rank == 0 or rank == dims[-2]:
            return dims


def is_filiform(t: StructureTensor) -> bool:
    """Slowest-possible nilpotent decay: the k-th term has dimension d - k."""
    d = t.dim
    expected = [d] + [d - k for k in range(2, d + 1)]
    return lower_central_series(t) == expected
