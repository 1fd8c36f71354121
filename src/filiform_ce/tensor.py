"""Dense structure-constant tensors and the generic algebra kernel.

An algebra with basis ``e_0 .. e_{d-1}`` is stored as the rank-3 array
``gamma`` with ``gamma[i, j, k]`` the coefficient of ``e_k`` in the product
``[e_i, e_j]``.  Everything here is generic over that representation: the
bilinear product, the Leibniz-identity residual, basis changes, the lower
central series and the filiform test.
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
    return np.einsum("i,j,ijk->k", x, y, t.gamma)


def leibniz_residual_tensor(t: StructureTensor) -> np.ndarray:
    """Defect of ``[x,[y,z]] = [[x,y],z] - [[x,z],y]`` over all basis triples.

    Entry ``[i, j, k, m]`` is the e_m-component of
    ``[e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j]``.
    """
    g = t.gamma
    inner_right = np.einsum("jkl,ilm->ijkm", g, g)   # [e_i, [e_j, e_k]]
    left_first = np.einsum("ijl,lkm->ijkm", g, g)    # [[e_i, e_j], e_k]
    swap_last = np.einsum("ikl,ljm->ijkm", g, g)     # [[e_i, e_k], e_j]
    return inner_right - left_first + swap_last


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
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (t.dim, t.dim):
        raise DomainError(f"basis-change matrix must be {t.dim}x{t.dim}, got {g.shape}")
    require_finite(g, "basis-change matrix")
    # relative rank test: a uniformly small but well-conditioned matrix is a
    # perfectly good basis, while abs(det) would reject it for large dim
    s = np.linalg.svd(g, compute_uv=False)
    if s[-1] <= 1e-12 * max(1.0, s[0]):
        raise SingularMatrixError("basis-change matrix is singular")
    ginv = np.linalg.inv(g)
    new_gamma = np.einsum("ai,bj,abl,kl->ijk", g, g, t.gamma, ginv)
    return StructureTensor(new_gamma)


def _row_space(rows: np.ndarray, floor: float = 0.0) -> tuple[int, np.ndarray]:
    """Rank and an orthonormal basis of the row space, by SVD thresholding.

    ``floor`` is an absolute cutoff below which singular values never count,
    whatever the leading one is; without it a matrix consisting entirely of
    rounding dust would be ranked against its own dust scale.
    """
    if rows.size == 0:
        return 0, np.zeros((0, rows.shape[1] if rows.ndim == 2 else 0), dtype=complex)
    _, s, vh = np.linalg.svd(rows)
    if s.size == 0 or s[0] <= floor:
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
        products = np.einsum("ri,ijk->rjk", basis, t.gamma).reshape(-1, d)
        rank, basis = _row_space(products, floor=floor)
        dims.append(rank)
        if rank == 0 or rank == dims[-2]:
            return dims


def is_filiform(t: StructureTensor) -> bool:
    """Slowest-possible nilpotent decay: the k-th term has dimension d - k."""
    d = t.dim
    expected = [d] + [d - k for k in range(2, d + 1)]
    return lower_central_series(t) == expected
