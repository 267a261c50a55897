"""Dense linear algebra over a Field, on numpy integer matrices."""

from __future__ import annotations

import numpy as np

from .errors import CodeError, SearchCapExceeded
from .galois import Field

# rows * min(rows, cols) * cols an rref may take: n = 2047 binary BCH codes
# (8.5e9, 25-31 s on a 2-core Xeon VM) pass, n = 4095 (6.8e10) does not
_RREF_BUDGET = 1 << 34


def _add_outer(acc, coef, row, field: Field):
    """acc + coef[:, None] * row, through the field's vmul and vadd: one
    table lookup each for q <= galois.TABLE_MAX, log/antilog and base-p
    digits above it; no np.unique."""
    return field.vadd(acc, field.vmul(coef[:, None], row))


def rref(mat, field: Field):
    """Reduced row echelon form. Returns (R, pivot_columns); zero rows dropped.

    Each pivot clears its column from every other row in one vectorized
    update.  A matrix whose shape allows more than _RREF_BUDGET entry
    updates (rows * rank bound * cols) raises SearchCapExceeded before any
    elimination."""
    a = np.asarray(mat)
    if a.ndim != 2:
        raise CodeError("matrix must be two-dimensional")
    rows, cols = a.shape
    if rows * min(rows, cols) * cols > _RREF_BUDGET:
        raise SearchCapExceeded(
            f"rref of a {rows} x {cols} matrix: up to {rows} * "
            f"{min(rows, cols)} * {cols} entry updates, over the budget "
            f"{_RREF_BUDGET}")
    a = np.array(a, dtype=np.int64, order="C")
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = r + int(a[r:, c].argmax())   # any nonzero entry will do
        if a[piv, c] == 0:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        if a[r, c] != 1:
            a[r] = field.vmul(field.inv(int(a[r, c])), a[r])
        others = a[:, c].nonzero()[0]
        others = others[others != r]
        if others.size:
            a[others] = _add_outer(a[others], field.vneg(a[others, c]), a[r],
                                   field)
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rank(mat, field: Field) -> int:
    return rref(mat, field)[0].shape[0]


def reduce_vector(r, pivots, v, field: Field):
    """Residual of v after elimination against an rref matrix; v may be one
    vector or a matrix whose rows are reduced together."""
    v = np.array(v, dtype=np.int64)
    rows = v.reshape(-1, v.shape[-1])
    for i, c in enumerate(pivots):
        hit = rows[:, c].nonzero()[0]
        if hit.size:
            rows[hit] = _add_outer(rows[hit], field.vneg(rows[hit, c]), r[i],
                                   field)
    return v


def in_rowspace(r, pivots, v, field: Field) -> bool:
    """True iff v (or every row of v) lies in the row space of r."""
    return not reduce_vector(r, pivots, v, field).any()


def complement(r, pivots, field: Field):
    """The right null space of r, given r[:, pivots] = I (an rref and its
    pivots), in systematic form: one row per other column c, ascending,
    with 1 at c and -r[:, c] at the pivots.  Returns (rows, those columns)."""
    free = np.setdiff1d(np.arange(r.shape[1]), pivots, assume_unique=True)
    out = np.zeros((len(free), r.shape[1]), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = field.vneg(r[:, free]).T
    return out, free


def matmul(a, b, field: Field):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[1] != b.shape[0]:
        raise CodeError("matmul shape mismatch")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        out = _add_outer(out, a[:, k], b[k], field)
    return out


def inv_matrix(mat, field: Field):
    a = np.asarray(mat, dtype=np.int64)
    n = a.shape[0]
    if a.shape != (n, n):
        raise CodeError("matrix must be square")
    aug = np.concatenate([a, np.eye(n, dtype=np.int64)], axis=1)
    r, pivots = rref(aug, field)
    if pivots[:n] != list(range(n)) or r.shape[0] != n:
        raise CodeError("matrix is singular")
    return r[:, n:]

