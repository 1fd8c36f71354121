"""Slow reference implementations used to cross-check the library.

Everything in here is written with explicit Python loops and
``numpy.linalg.solve`` so that no code path is shared with the pairwise
matrix-product kernels in ``filiform_ce.tensor``.  Tests compare the two
routes on random inputs; expected constants frozen into the test modules
were produced with these functions (or by hand) before the fast versions
were trusted.
"""

from __future__ import annotations

import numpy as np

from filiform_ce import AdaptedTransform, act_on_params, adapted_matrix, family, transform_from_matrix
from filiform_ce.action import _sum_terms
from filiform_ce.classify import _PLANS, _cell, _root, nonzero_flags
from filiform_ce.subsets import free_pairs, label
from filiform_ce.tensor import StructureTensor, leibniz_residual_tensor


def naive_bracket(gamma: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] computed with three nested loops."""
    d = gamma.shape[0]
    out = np.zeros(d, dtype=complex)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[k] += x[i] * y[j] * gamma[i, j, k]
    return out


def naive_residual_max(gamma: np.ndarray) -> float:
    """Largest violation of [x,[y,z]] = [[x,y],z] - [[x,z],y] on basis triples."""
    d = gamma.shape[0]
    eye = np.eye(d, dtype=complex)
    worst = 0.0
    for i in range(d):
        for j in range(d):
            for k in range(d):
                lhs = naive_bracket(gamma, eye[i], naive_bracket(gamma, eye[j], eye[k]))
                rhs = naive_bracket(gamma, naive_bracket(gamma, eye[i], eye[j]), eye[k])
                rhs = rhs - naive_bracket(gamma, naive_bracket(gamma, eye[i], eye[k]), eye[j])
                worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def naive_change_basis(gamma: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Structure constants in the basis whose vectors are the columns of g.

    For each pair (i, j) the bracket of the new basis vectors is computed
    with :func:`naive_bracket` and then re-expanded in the new basis by
    solving a linear system, entry by entry.
    """
    d = gamma.shape[0]
    out = np.zeros((d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            b = naive_bracket(gamma, g[:, i], g[:, j])
            out[i, j, :] = np.linalg.solve(g, b)
    return out


def naive_series(gamma: np.ndarray) -> list[int]:
    """Dimensions of the descending series of ideals [A, A], [[A,A], A], ...

    Spans are tracked as explicit row matrices and ranked with
    ``numpy.linalg.matrix_rank`` under an absolute tolerance, a different
    decision rule from the library's.
    """
    d = gamma.shape[0]
    tol = 1e-9 * max(1.0, float(np.max(np.abs(gamma))))
    eye = np.eye(d, dtype=complex)
    dims = [d]
    current = eye.copy()
    while True:
        rows = []
        for a in range(current.shape[0]):
            for i in range(d):
                rows.append(naive_bracket(gamma, current[a], eye[i]))
        mat = np.array(rows) if rows else np.zeros((1, d), dtype=complex)
        if np.max(np.abs(mat)) <= tol:
            dims.append(0)
            return dims
        rank = int(np.linalg.matrix_rank(mat, tol=tol))
        dims.append(rank)
        if rank == 0:
            return dims
        # reduce to an orthonormal row basis for the next step; the leading
        # right singular vectors span the row space (QR would not: without
        # pivoting its leading columns can normalize a near-zero row)
        _, _, vh = np.linalg.svd(mat)
        current = vh[:rank]

def expected_free_labels(n: int) -> list[str]:
    """Free coordinates of the cocycle space, from the recurrence worked by hand.

    The three corner labels always survive; among the b_{1,m} only even m
    up to n-2 do, plus the top-of-chain label when n is odd.
    """
    labels = ["b00", "b01", "b11"]
    labels += ["b1%d" % m for m in range(2, n - 1) if m % 2 == 0]
    if n % 2 == 1:
        labels.append("b1%d" % (n - 1))
    return labels


def expected_relations(n: int) -> dict[str, dict[str, complex]]:
    """Forced pair coefficients b_{i,j} (1 <= i < j <= n-1, label not free)
    as combinations of the free labels, derived by hand from the recurrence:

    * moving down a diagonal flips the sign, so b_{i,j} depends only on
      i+j with factor (-1)^(i+1) relative to b_{1,i+j-1};
    * diagonals whose coordinate b_{1,i+j-1} is not free collapse to zero;
    * for odd n the diagonal i+j = n survives and is proportional to the
      free top label b_{1,n-1}; for even n it is forced to zero.
    """
    free = set(expected_free_labels(n))
    out: dict[str, dict[str, complex]] = {}
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            name = "b%d%d" % (i, j)
            if name in free:
                continue
            sign = (-1) ** (i + 1)
            if i + j == n:
                if n % 2 == 1:
                    out[name] = {"b1%d" % (n - 1): complex(sign)}
                else:
                    out[name] = {}
                continue
            m = i + j - 1
            if m % 2 == 0 and m <= n - 2:
                out[name] = {"b1%d" % m: complex(sign)}
            else:
                out[name] = {}
    return out


def direction(n: int, label: str) -> np.ndarray:
    """Unit tensor direction of one unknown e_n-coefficient, as a dense array."""
    d = n + 1
    g = np.zeros((d, d, d))
    if label == "b00":
        g[0, 0, n] = 1.0
    elif label == "b01":
        g[0, 1, n] = 1.0
    elif label == "b11":
        g[1, 1, n] = 1.0
    else:
        i, j = int(label[1]), int(label[2:])
        g[i, j, n] = 1.0
        g[j, i, n] = -1.0
    return g


def skeleton(n: int) -> np.ndarray:
    """The chain [e_i, e_0] = e_{i+1} = -[e_0, e_i] as a dense array."""
    d = n + 1
    g = np.zeros((d, d, d))
    for i in range(1, n):
        g[i, 0, i + 1] = 1.0
        g[0, i, i + 1] = -1.0
    return g


def tensor_residual_rows(n: int, labels) -> list[tuple[float, ...]]:
    """Rows of the Leibniz residual matrix on the tensor route, one column per
    label: the dense residual tensor (``leibniz_residual_tensor``) of the
    skeleton plus that label's direction, flattened.  Zero rows are dropped,
    each row's first nonzero entry is made positive and repeats are removed.
    Reference for ``family._residual_rows``, which reads the same rows off
    the sparse brackets.
    """
    t0 = skeleton(n)
    units = (StructureTensor((t0 + direction(n, lab)).astype(complex)) for lab in labels)
    a = np.real([leibniz_residual_tensor(t).reshape(-1) for t in units]).T
    a = a[a.any(axis=1)]
    a *= np.sign(a[np.arange(len(a)), (a != 0).argmax(axis=1)])[:, None]
    return list(dict.fromkeys(map(tuple, a.tolist())))


def svd_relations(n: int) -> tuple[int, dict[str, dict[str, float]]]:
    """Rank and relations of the Leibniz constraints from a float null space.

    The residual matrix is built on the tensor route (one column per
    unknown's direction); its rank comes from an SVD cutoff, and the
    relations from inverting the null basis on the free labels, rounded
    where within 1e-9 of an integer.  Reference for the exact elimination of
    ``solve_leibniz_constraints``.
    """
    labels = [label(pair) for pair in family._unknowns(n)]
    t0 = skeleton(n)
    cols = []
    for lab in labels:
        t = StructureTensor((t0 + direction(n, lab)).astype(complex))
        cols.append(np.real(leibniz_residual_tensor(t)).reshape(-1))
    a = np.column_stack(cols)
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > 1e-8 * s[0]))
    free = [label(pair) for pair in free_pairs(n)]
    free_idx = [labels.index(lab) for lab in free]
    dep_idx = [k for k in range(len(labels)) if k not in free_idx]
    nmat = vh[rank:, :].T
    coeff = nmat[dep_idx, :] @ np.linalg.inv(nmat[free_idx, :])
    near = np.round(coeff)
    coeff = np.where(np.abs(coeff - near) < 1e-9, near, coeff)
    relations = {
        labels[k]: {src: float(c) for src, c in zip(free, row) if c != 0.0}
        for k, row in zip(dep_idx, coeff)
    }
    return rank, relations


def unit_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``family._unit_tables`` on the tensor route: per free label, its dense
    direction plus c times the dense direction of every forced coefficient
    whose solved relation names it (the top label of odd n, slot ``b``, times
    -1), as complex rows beside the dense skeleton."""
    relations = family.solve_leibniz_constraints(n).implied_relations
    units = []
    for name in map(label, free_pairs(n)):
        factor = -1.0 if n % 2 and name == f"b1{n - 1}" else 1.0
        forced = sum(c * direction(n, r.target) for r in relations for src, c in r.terms if src == name)
        units.append(factor * (direction(n, name) + forced))
    return skeleton(n), np.array(units, dtype=complex).reshape(len(units), -1)


def table_sum_terms(n: int) -> tuple:
    """``action._sum_terms`` read off the table of each unit parameter tuple
    (built from :func:`unit_tables`): C[i, j] = c_{i+1, j+m}, merged to i <= j
    with numpy.  The generated action's terms must equal these bit for bit.
    """
    t0, units = unit_tables(n)
    size = len(units)
    tables = [
        (t0 + (tuple(complex(s == u) for u in range(size)) @ units).reshape(t0.shape))[:, :, n].real
        for s in range(size)
    ]
    rows = []
    for m in range(2, n - 1, 2):
        terms = []
        for s, unit in enumerate(tables):
            c = np.zeros((n - 2, n - 2))
            c[:, : n - m] = unit[1 : n - 1, m:n]
            c = np.triu(c + c.T - np.diag(np.diag(c)))
            if c.any():
                terms.append((s, tuple((float(c[i, j]), int(i), int(j)) for i, j in zip(*np.nonzero(c)))))
        rows.append((n - m - n % 2, tuple(terms)))
    return tuple(rows)


def naive_build_table(p) -> np.ndarray:
    """Structure constants of the family member ``p``, entry by entry.

    The chain [e_i, e_0] = e_{i+1} = -[e_0, e_i], then every e_n-coefficient
    b_{i,j}: a free one read off ``p``, a forced one as the combination of
    free ones that :func:`expected_relations` gives, set at [e_i, e_j] and
    negated at [e_j, e_i].  ``p.b`` is -b_{1,n-1}.
    """
    n = p.n
    free = dict(zip(expected_free_labels(n), p.as_tuple()))
    if n % 2 == 1:
        free["b1%d" % (n - 1)] = -p.b
    values = dict(free)
    for target, terms in expected_relations(n).items():
        values[target] = sum(c * free[src] for src, c in terms.items())
    d = n + 1
    gamma = np.zeros((d, d, d), dtype=complex)
    for i in range(1, n):
        gamma[i, 0, i + 1] = 1
        gamma[0, i, i + 1] = -1
    gamma[0, 0, n] = values["b00"]
    gamma[0, 1, n] = values["b01"]
    gamma[1, 1, n] = values["b11"]
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            v = values["b%d%d" % (i, j)]
            gamma[i, j, n] = v
            gamma[j, i, n] = -v
    return gamma


def matrix_compose(t1, t2, p):
    """``compose`` by way of the full basis-change matrices: the product of
    ``adapted_matrix(t1, p)`` and ``adapted_matrix(t2, t1 . p)``, reduced."""
    m = adapted_matrix(t1, p) @ adapted_matrix(t2, act_on_params(t1, p))
    return transform_from_matrix(m, p.n)


def matrix_inverse(t, p):
    """``inverse_transform`` by way of the dense inverse of ``adapted_matrix(t, p)``."""
    return transform_from_matrix(np.linalg.inv(adapted_matrix(t, p)), p.n)


def array_shift_coefficients(t) -> list:
    """The shift coefficients c_k of ``elementary_factors(t)`` with the image of
    e_1 kept as a numpy vector, as the library computed them before it dropped
    numpy there; the list version must match bit for bit."""
    n = t.n
    image = np.zeros(n - 1, dtype=complex)
    image[1] = 1.0
    out = []
    for k in range(2, n - 1):
        c = t.coeff_B(k) / t.coeff_B(1) - image[k]
        shifted = np.zeros_like(image)
        shifted[k - 1 :] = image[: n - k]
        image += c * shifted
        out.append(complex(c))
    return out


def loop_act(n: int, a0: complex, a1: complex, bvec: tuple, v: tuple) -> tuple:
    """The closed form behind ``act_on_params``, on plain tuples, unvalidated,
    evaluated by walking ``action._sum_terms`` term by term: the reference
    that every function ``action._source`` generates must match bit for bit.

    ``bvec`` holds B_1..B_{n-2} and ``v`` the parameters in ``as_tuple``
    order; the result is in the same order.
    """
    return loop_act_slot(n, a0, a1, bvec, v, None)


def loop_act_slot(n: int, a0: complex, a1: complex, bvec: tuple, v: tuple, i: int | None) -> complex | tuple:
    """Slot ``i`` of ``loop_act(n, a0, a1, bvec, v)`` (every slot for None) by the
    same expressions: an even row alone, any other slot with b00, b01, b11, b."""
    b1 = bvec[0]
    shear = a0 + a1 * (v[-1] if n % 2 else 0j)
    tail = shear if n % 2 else 1
    rows = _sum_terms(n)
    if i is not None and 3 <= i < 3 + len(rows):
        power, terms = rows[i - 3]
        return loop_even_row(power, terms, a0, b1, tail, bvec, v)
    b00, b01, b11 = v[:3]
    nn = a0 ** (n - 2) * shear
    out = [
        (a0 * a0 * b00 + a0 * a1 * b01 + a1 * a1 * b11) / (nn * b1),
        (a0 * b01 + 2 * a1 * b11) / nn,
        b1 * b11 / nn,
    ]
    if i is None:
        for power, terms in rows:
            out.append(loop_even_row(power, terms, a0, b1, tail, bvec, v))
    if n % 2:
        out.append(b1 * v[-1] / shear)
    return tuple(out) if i is None else out[min(i, 3)]


def loop_even_row(
    power: int, terms: tuple, a0: complex, b1: complex, tail, bvec: tuple, v: tuple
) -> complex:
    total = 0j
    for s, poly in terms:
        coeff = 0j
        for c, i, j in poly:
            coeff += c * bvec[i] * bvec[j]
        total += coeff * v[s]
    return total / (a0**power * b1 * tail)


def full_action_witness(p):
    """Normal-form witness of ``p`` with every slot read off the full closed
    form ``loop_act``: the torus "1" slots from the whole sheared tuple, each
    shift-solve value from the whole action at the current witness.
    ``canonicalize`` evaluates single slots and must agree bit for bit."""
    flags = nonzero_flags(p)
    plan = _PLANS[p.n, _cell(p.n, flags).name]
    n = p.n
    if flags["b11"]:
        num, den = -p.b01, 2 * p.b11
    elif flags["b01"]:
        num, den = -p.b00, p.b01
    else:
        num, den = 0j, 1
    s = num / den
    v = p.as_tuple()
    full = loop_act(n, 1, s, (1 + 0j,) + (0j,) * (n - 3), v)
    sheared = [full[i] for i in plan.ones]
    a0 = 1 + 0j
    for j, e in plan.root:
        a0 = a0 * sheared[j] if e > 0 else a0 / sheared[j]
    a0 = _root(a0, plan.order)
    b1 = 1 + 0j
    if plan.scale is not None:
        j, x, y = plan.scale
        b1 = a0 ** -x / sheared[j] if y > 0 else sheared[j] / a0 ** -x
    a1 = a0 * num / den
    bvec = [b1] + [0j] * (n - 3)

    def slot(i):
        return loop_act(n, a0, a1, bvec, v)[i]

    for k, i in plan.shifts:
        f0 = slot(i)
        if not f0:
            continue
        bvec[k - 1] = b1
        d = (f0 - slot(i)) / b1
        bvec[k - 1] = first = f0 / d
        d = (f0 - slot(i)) / first
        bvec[k - 1] = f0 / d
        bvec[k - 1] += slot(i) / d
    return AdaptedTransform(n, a0, a1, tuple(bvec))


#: parameter slot names, in tuple order, as they were written out by hand for
#: n = 4..8.  ``filiform_ce.subsets.PARAM_SLOTS`` derives them from the
#: free-pair rule and must reproduce this table.
FROZEN_PARAM_SLOTS = {
    4: ("b00", "b01", "b11", "b12"),
    5: ("b00", "b01", "b11", "b12", "b"),
    6: ("b00", "b01", "b11", "b12", "b14"),
    7: ("b00", "b01", "b11", "b12", "b14", "b"),
    8: ("b00", "b01", "b11", "b12", "b14", "b16"),
}


#: row signs s(i) of the solved tables, gamma[i, j, n] = s(i) * b_{1,i+j-1}
#: off the top chain, recorded from a solver that checked every relation's
#: shape; ``ConstraintReport.sign`` must reproduce this table.  Row 2 is
#: pinned from n = 6 on and row 3 at n = 8 and 9; every other row holds only
#: forced zeros off the top chain and reads +1.
FROZEN_ROW_SIGNS = {
    4: {1: 1, 2: 1},
    5: {1: 1, 2: 1, 3: 1},
    6: {1: 1, 2: -1, 3: 1, 4: 1},
    7: {1: 1, 2: -1, 3: 1, 4: 1, 5: 1},
    8: {1: 1, 2: -1, 3: 1, 4: 1, 5: 1, 6: 1},
    9: {1: 1, 2: -1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1},
}


#: (n, cell) -> (c, k) of each parametric cell, as it was written out by hand
#: for n = 4..8: on the normal form the published orbit function reads
#: c * lam**k.  ``filiform_ce.classify._ORBIT_MONOMIALS`` derives it from the
#: stabilizers and must reproduce this table, the type of c included.
FROZEN_ORBIT_MONOMIALS = {
    (4, "U_1"): (-4, 1),
    (5, "U_1"): (-1, 1),
    (5, "U_5"): (-4, 1),
    (6, "U_1"): (-64, 3),
    (6, "U_2"): (-4, 1),
    (7, "U_1"): (-1, 1),
    (7, "U_5"): (-64, 3),
    (7, "U_9"): (-4, 1),
    (8, "U_1"): (-1024, 5),
    (8, "U_5"): (-0.25, -1),
    (8, "U_9"): (-4, 1),
}


#: the classification table as it was written out by hand, cell by cell, for
#: n = 4..8: (name, conditions, representative, parametric); "lam" marks the
#: free slot.  The cells in ``filiform_ce.subsets`` derive the last two
#: fields from the conditions and must reproduce this table.
FROZEN_SUBSETS = {
    4: (
        ("U_1", (("b11", True), ("b12", True)), ("lam", 0, 1, 1), True),
        ("U_2", (("b11", True), ("b12", False), ("delta", True)), (1, 0, 1, 0), False),
        ("U_3", (("b11", True), ("b12", False), ("delta", False)), (0, 0, 1, 0), False),
        ("U_4", (("b11", False), ("b01", True), ("b12", True)), (0, 1, 0, 1), False),
        ("U_5", (("b11", False), ("b01", True), ("b12", False)), (0, 1, 0, 0), False),
        ("U_6", (("b11", False), ("b01", False), ("b00", True), ("b12", True)), (1, 0, 0, 1), False),
        ("U_7", (("b11", False), ("b01", False), ("b00", True), ("b12", False)), (1, 0, 0, 0), False),
        ("U_8", (("b11", False), ("b01", False), ("b00", False), ("b12", True)), (0, 0, 0, 1), False),
        ("U_9", (("b11", False), ("b01", False), ("b00", False), ("b12", False)), (0, 0, 0, 0), False),
    ),
    5: (
        ("U_1", (("b", True), ("b11", True)), ("lam", 0, 1, 0, 1), True),
        ("U_2", (("b", True), ("b11", False), ("b01", True)), (0, 1, 0, 0, 1), False),
        ("U_3", (("b", True), ("b11", False), ("b01", False), ("b00", True)), (1, 0, 0, 0, 1), False),
        ("U_4", (("b", True), ("b11", False), ("b01", False), ("b00", False)), (0, 0, 0, 0, 1), False),
        ("U_5", (("b", False), ("b11", True), ("b12", True)), ("lam", 0, 1, 1, 0), True),
        ("U_6", (("b", False), ("b11", True), ("b12", False), ("delta", True)), (1, 0, 1, 0, 0), False),
        ("U_7", (("b", False), ("b11", True), ("b12", False), ("delta", False)), (0, 0, 1, 0, 0), False),
        ("U_8", (("b", False), ("b11", False), ("b01", True), ("b12", True)), (0, 1, 0, 1, 0), False),
        ("U_9", (("b", False), ("b11", False), ("b01", True), ("b12", False)), (0, 1, 0, 0, 0), False),
        ("U_10", (("b", False), ("b11", False), ("b01", False), ("b00", True), ("b12", True)), (1, 0, 0, 1, 0), False),
        ("U_11", (("b", False), ("b11", False), ("b01", False), ("b00", True), ("b12", False)), (1, 0, 0, 0, 0), False),
        ("U_12", (("b", False), ("b11", False), ("b01", False), ("b00", False), ("b12", True)), (0, 0, 0, 1, 0), False),
        ("U_13", (("b", False), ("b11", False), ("b01", False), ("b00", False), ("b12", False)), (0, 0, 0, 0, 0), False),
    ),
    6: (
        ("U_1", (("b11", True), ("b14", True)), ("lam", 0, 1, 0, 1), True),
        ("U_2", (("b11", True), ("b14", False), ("b12", True)), ("lam", 0, 1, 1, 0), True),
        ("U_3", (("b11", True), ("b14", False), ("b12", False), ("delta", True)), (1, 0, 1, 0, 0), False),
        ("U_4", (("b11", True), ("b14", False), ("b12", False), ("delta", False)), (0, 0, 1, 0, 0), False),
        ("U_5", (("b11", False), ("b01", True), ("b14", True)), (0, 1, 0, 0, 1), False),
        ("U_6", (("b11", False), ("b01", True), ("b14", False), ("b12", True)), (0, 1, 0, 1, 0), False),
        ("U_7", (("b11", False), ("b01", True), ("b14", False), ("b12", False)), (0, 1, 0, 0, 0), False),
        ("U_8", (("b11", False), ("b01", False), ("b00", True), ("b14", True)), (1, 0, 0, 0, 1), False),
        ("U_9", (("b11", False), ("b01", False), ("b00", True), ("b14", False), ("b12", True)), (1, 0, 0, 1, 0), False),
        ("U_10", (("b11", False), ("b01", False), ("b00", True), ("b14", False), ("b12", False)), (1, 0, 0, 0, 0), False),
        ("U_11", (("b11", False), ("b01", False), ("b00", False), ("b14", True)), (0, 0, 0, 0, 1), False),
        ("U_12", (("b11", False), ("b01", False), ("b00", False), ("b14", False), ("b12", True)), (0, 0, 0, 1, 0), False),
        ("U_13", (("b11", False), ("b01", False), ("b00", False), ("b14", False), ("b12", False)), (0, 0, 0, 0, 0), False),
    ),
    7: (
        ("U_1", (("b", True), ("b11", True)), ("lam", 0, 1, 0, 0, 1), True),
        ("U_2", (("b", True), ("b11", False), ("b01", True)), (0, 1, 0, 0, 0, 1), False),
        ("U_3", (("b", True), ("b11", False), ("b01", False), ("b00", True)), (1, 0, 0, 0, 0, 1), False),
        ("U_4", (("b", True), ("b11", False), ("b01", False), ("b00", False)), (0, 0, 0, 0, 0, 1), False),
        ("U_5", (("b", False), ("b14", True), ("b11", True)), ("lam", 0, 1, 0, 1, 0), True),
        ("U_6", (("b", False), ("b14", True), ("b11", False), ("b01", True)), (0, 1, 0, 0, 1, 0), False),
        ("U_7", (("b", False), ("b14", True), ("b11", False), ("b01", False), ("b00", True)), (1, 0, 0, 0, 1, 0), False),
        ("U_8", (("b", False), ("b14", True), ("b11", False), ("b01", False), ("b00", False)), (0, 0, 0, 0, 1, 0), False),
        ("U_9", (("b", False), ("b14", False), ("b12", True), ("b11", True)), ("lam", 0, 1, 1, 0, 0), True),
        ("U_10", (("b", False), ("b14", False), ("b12", True), ("b11", False), ("b01", True)), (0, 1, 0, 1, 0, 0), False),
        ("U_11", (("b", False), ("b14", False), ("b12", True), ("b11", False), ("b01", False), ("b00", True)), (1, 0, 0, 1, 0, 0), False),
        ("U_12", (("b", False), ("b14", False), ("b12", True), ("b11", False), ("b01", False), ("b00", False)), (0, 0, 0, 1, 0, 0), False),
        ("U_13", (("b", False), ("b14", False), ("b12", False), ("b11", True), ("delta", True)), (1, 0, 1, 0, 0, 0), False),
        ("U_14", (("b", False), ("b14", False), ("b12", False), ("b11", True), ("delta", False)), (0, 0, 1, 0, 0, 0), False),
        ("U_15", (("b", False), ("b14", False), ("b12", False), ("b11", False), ("b01", True)), (0, 1, 0, 0, 0, 0), False),
        ("U_16", (("b", False), ("b14", False), ("b12", False), ("b11", False), ("b01", False), ("b00", True)), (1, 0, 0, 0, 0, 0), False),
        ("U_17", (("b", False), ("b14", False), ("b12", False), ("b11", False), ("b01", False), ("b00", False)), (0, 0, 0, 0, 0, 0), False),
    ),
    8: (
        ("U_1", (("b16", True), ("b11", True)), ("lam", 0, 1, 0, 0, 1), True),
        ("U_2", (("b16", True), ("b11", False), ("b01", True)), (0, 1, 0, 0, 0, 1), False),
        ("U_3", (("b16", True), ("b11", False), ("b01", False), ("b00", True)), (1, 0, 0, 0, 0, 1), False),
        ("U_4", (("b16", True), ("b11", False), ("b01", False), ("b00", False)), (0, 0, 0, 0, 0, 1), False),
        ("U_5", (("b16", False), ("b14", True), ("b11", True)), ("lam", 0, 1, 0, 1, 0), True),
        ("U_6", (("b16", False), ("b14", True), ("b11", False), ("b01", True)), (0, 1, 0, 0, 1, 0), False),
        ("U_7", (("b16", False), ("b14", True), ("b11", False), ("b01", False), ("b00", True)), (1, 0, 0, 0, 1, 0), False),
        ("U_8", (("b16", False), ("b14", True), ("b11", False), ("b01", False), ("b00", False)), (0, 0, 0, 0, 1, 0), False),
        ("U_9", (("b16", False), ("b14", False), ("b12", True), ("b11", True)), ("lam", 0, 1, 1, 0, 0), True),
        ("U_10", (("b16", False), ("b14", False), ("b12", True), ("b11", False), ("b01", True)), (0, 1, 0, 1, 0, 0), False),
        ("U_11", (("b16", False), ("b14", False), ("b12", True), ("b11", False), ("b01", False), ("b00", True)), (1, 0, 0, 1, 0, 0), False),
        ("U_12", (("b16", False), ("b14", False), ("b12", True), ("b11", False), ("b01", False), ("b00", False)), (0, 0, 0, 1, 0, 0), False),
        ("U_13", (("b16", False), ("b14", False), ("b12", False), ("b11", True), ("delta", True)), (1, 0, 1, 0, 0, 0), False),
        ("U_14", (("b16", False), ("b14", False), ("b12", False), ("b11", True), ("delta", False)), (0, 0, 1, 0, 0, 0), False),
        ("U_15", (("b16", False), ("b14", False), ("b12", False), ("b11", False), ("b01", True)), (0, 1, 0, 0, 0, 0), False),
        ("U_16", (("b16", False), ("b14", False), ("b12", False), ("b11", False), ("b01", False), ("b00", True)), (1, 0, 0, 0, 0, 0), False),
        ("U_17", (("b16", False), ("b14", False), ("b12", False), ("b11", False), ("b01", False), ("b00", False)), (0, 0, 0, 0, 0, 0), False),
    ),
}
