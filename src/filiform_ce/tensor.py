"""Dense structure-constant tensors and the generic algebra kernel.

An algebra with basis ``e_0 .. e_{d-1}`` is stored as the rank-3 array
``gamma`` with ``gamma[i, j, k]`` the coefficient of ``e_k`` in the product
``[e_i, e_j]``.  Everything here is generic over that representation: the
bilinear product, the Leibniz-identity residual, basis changes, the lower
central series and the filiform test.

Every contraction is a chain of pairwise matrix products (``@``),
so a basis change costs O(d^4) rather than the O(d^6) of summing over all
four operands at once (the contraction-order idea of Smith & Gray, JOSS 2018).

The basis-change kernels (``_moved``, ``_lower_inverse``) also take arrays
with leading stack axes: ``g`` of shape (..., d, d) and ``gamma`` of shape
(..., d, d, d) hold one member per index of the leading axes.  Each
product is then a stack of the same BLAS call on the same shapes and
strides, so every member comes out bit for bit as it does alone, while
the fixed cost of each numpy call, which dominates at d <= 9, is paid
once per stack instead of once per member.

Each condition on which a step refuses a member is written once, in the
step's guards (``StructureTensor._guards``, ``_matrix_guards``): masks
over those stack axes of the members each guard admits, in the order the
step tests them.  The public one-member function raises the error of the
first guard that fails (``_refuse``); a stack form such as
``_change_stack`` keeps the members that every guard admits
(``_admitted``), so a guard added to a step reaches its stack form too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularMatrixError
from .tolerance import RANK_RTOL


def _finite(a: np.ndarray, axes: tuple) -> np.ndarray:
    """Whether ``a`` holds only finite numbers along ``axes``, the axes of
    one member: the array form of ``tolerance.require_finite``'s test."""
    return np.logical_and.reduce(np.isfinite(a), axis=axes)


def _refuse(guards) -> None:
    """Raise the error of the first of a step's ``guards`` that fails on
    its one member: ``guards`` are (admits, exception type, message) in
    the order the step tests them, ``admits`` a mask over the leading
    stack axes, here none."""
    for admits, error, message in guards:
        if not admits:
            raise error(message)


def _admitted(guards) -> np.ndarray:
    """Per member of a stack, whether every one of a step's ``guards`` admits it."""
    return functools.reduce(np.logical_and, [admits for admits, _, _ in guards])


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
        _refuse(self._guards(arr))
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "gamma", arr)

    @staticmethod
    def _guards(gamma: np.ndarray) -> tuple:
        """Guards of the tables ``gamma`` (..., d, d, d), over their leading
        stack axes (see ``_refuse``): every constant is finite."""
        finite = _finite(gamma, (-3, -2, -1))
        return ((finite, DomainError, "structure constants must be finite (no NaN or infinity)"),)

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
    # [[e_i, e_k], e_j] is left_first with its middle indices swapped; it is
    # added in place: the same sums, one d^4 temporary fewer
    out = inner_right.transpose(2, 0, 1, 3) - left_first
    out += left_first.transpose(0, 2, 1, 3)
    return out


def _normalized(t: StructureTensor) -> tuple[StructureTensor, int]:
    """``t`` scaled by 2**-e, with e the binary exponent of its largest real
    or imaginary part, which then lies in [0.5, 1): (scaled tensor, e).
    Scaling by a power of two is exact for every entry that stays in the
    normal range (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., ch. 7)."""
    e = math.frexp(float(np.max(np.abs(t.gamma.view(np.float64)))))[1]
    return StructureTensor(_times_power_of_two(t.gamma, -e)), e


def _worst_entry(t: StructureTensor) -> tuple[int, float]:
    """Flat index and size of the largest |``leibniz_residual_tensor(t)``|
    entry, taken as ``leibniz_residual`` describes."""
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.abs(leibniz_residual_tensor(t))
    flat = int(np.argmax(r))  # the first NaN, if there is one, as ``max`` reads it
    peak = r.item(flat)
    if math.isfinite(peak):
        return flat, peak
    scaled, e = _normalized(t)
    flat, peak = _worst_entry(scaled)
    try:
        return flat, math.ldexp(peak, 2 * e)
    except OverflowError:
        raise DomainError(f"Leibniz residual {peak!r} * 2**{2 * e} leaves float range") from None


def leibniz_residual(t: StructureTensor) -> float:
    """Worst violation of the Leibniz identity over basis triples.

    Returns ``max_{i,j,k} || [e_i,[e_j,e_k]] - [[e_i,e_j],e_k] + [[e_i,e_k],e_j] ||_inf``;
    a value of zero (up to tolerance) characterizes the identity.  Where
    products of the entries overflow, the residual is taken on the table
    scaled by a power of two (``_normalized``) and scaled back; a residual
    beyond float range raises ``DomainError``.
    """
    return _worst_entry(t)[1]


def worst_leibniz_triple(t: StructureTensor) -> tuple[tuple[int, int, int], float]:
    """Basis triple (i, j, k) realizing the largest Leibniz defect, and its
    size, taken as ``leibniz_residual`` takes it."""
    flat, peak = _worst_entry(t)
    return tuple(map(int, np.unravel_index(flat, (t.dim,) * 4)[:3])), peak


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
    above = _above_diagonal(g)
    _refuse(_matrix_guards(g, above))
    ginv = _scaled_inverse(g) if above else _lower_inverse(g)
    return StructureTensor(_moved(t.gamma, g, ginv))


def _matrix_guards(g: np.ndarray, above) -> tuple:
    """``change_basis``'s guards of the matrices ``g`` (..., d, d), over
    their leading stack axes (see ``_refuse``); ``above`` marks the members
    with an entry above the diagonal, which take the scaled route.  Every
    entry is finite; then a lower triangular member has no zero on its
    diagonal, the only singular case of forward substitution.  The scaled
    route tests its own rank."""
    invertible = above | np.logical_and.reduce(np.diagonal(g, axis1=-2, axis2=-1), axis=-1)
    return (
        (_finite(g, (-2, -1)), DomainError, "basis-change matrix must be finite (no NaN or infinity)"),
        (invertible, SingularMatrixError, "basis-change matrix is singular"),
    )


def _change_stack(gamma: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``change_basis`` of the tables ``gamma`` by the matrices ``g``, over
    their shared leading stack axes, by the lower triangular route alone.

    Returns the moved tables and, per member, whether the stack keeps it:
    its matrix is lower triangular, ``change_basis``'s guards admit it
    (``_matrix_guards``) and ``StructureTensor``'s admit its moved table.
    A member left out moves by the identity, so it cannot stop the forward
    substitution of the rest; every member kept comes out bit for bit as
    ``change_basis`` gives it alone.
    """
    above = _above_diagonal(g)
    kept = ~above & _admitted(_matrix_guards(g, above))
    g = np.where(kept[..., None, None], g, np.eye(g.shape[-1]))
    moved = _moved(gamma, g, _lower_inverse(g))
    return moved, kept & _admitted(StructureTensor._guards(moved))


def _above_diagonal(g: np.ndarray) -> np.ndarray:
    """Whether ``g`` has a nonzero entry above its diagonal, per member of
    any leading stack axes (``np.triu(g, 1).any()`` at a third of its cost)."""
    i, j = _upper_indices(g.shape[-1])
    return g[..., i, j].any(axis=-1)


@functools.cache
def _upper_indices(d: int) -> tuple:
    return np.triu_indices(d, 1)


def _moved(gamma: np.ndarray, g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """``change_basis``'s contraction, over any leading stack axes shared by
    ``gamma``, ``g`` and its inverse ``ginv``:
    sum_{a,b,l} g[a,i] g[b,j] gamma[a,b,l] ginv[k,l], summing a, then b, then l."""
    *stack, d = g.shape[:-1]
    cube = (*stack, d, d, d)
    gt = np.swapaxes(g, -1, -2)
    moved = (gt @ gamma.reshape(*stack, d, d * d)).reshape(cube)
    moved = gt[..., None, :, :] @ moved
    return (moved.reshape(*stack, d * d, d) @ np.swapaxes(ginv, -1, -2)).reshape(cube)


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
    """Inverse of a lower triangular ``g`` by forward substitution, row by row,
    over any leading stack axes of ``g``.

    Only an exact zero on the diagonal is singular; ``_matrix_guards``
    refuses it before this runs.  A witness with a diagonal near 1e-30
    under entries near 1 in its e_n row looks rank deficient to the scaled
    singular-value test, yet substitution inverts it to working accuracy
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    ch. 8).
    """
    inv = np.zeros_like(g)
    for row, left, above, pivot, diagonal in _substitution_steps(g.ndim, g.shape[-1]):
        r = -(g[left] @ inv[above])
        r[diagonal] += 1
        np.divide(r, g[pivot], out=inv[row])
    return inv


@functools.cache
def _substitution_steps(ndim: int, d: int) -> tuple:
    """Index tuples of ``_lower_inverse``'s step i = 0..d-1 on arrays of
    ``ndim`` axes, for every member at once: row i, its entries left of the
    diagonal, the rows above it, its diagonal entry (row i kept as an axis of
    length 1, so one set of indices serves a stack and one member), and
    entry i of the computed row.  Built once per shape, they index as
    cheaply as plain indices on one member."""
    every = (slice(None),) * (ndim - 2)
    steps = []
    for i in range(d):
        row = every + (slice(i, i + 1),)
        steps.append((row, row + (slice(i),), every + (slice(i),), row + (slice(i, i + 1),), every + (0, i)))
    return tuple(steps)


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
    return lower_central_series(t) == _filiform_series(t.dim)


def _filiform_series(d: int) -> list[int]:
    """``lower_central_series`` of a filiform algebra of dimension d."""
    return [d] + [d - k for k in range(2, d + 1)]
