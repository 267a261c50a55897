"""Dense linear algebra over a Field, on numpy integer matrices."""

from __future__ import annotations

import numpy as np

from .errors import CodeError
from .galois import Field


def rref(mat, field: Field):
    """Reduced row echelon form. Returns (R, pivot_columns); zero rows dropped."""
    a = np.array(mat, dtype=np.int64)
    if a.ndim != 2:
        raise CodeError("matrix must be two-dimensional")
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        if a[r, c] != 1:
            a[r] = field.vmul(field.inv(int(a[r, c])), a[r])
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = field.vadd(a[i], field.vmul(field.neg(int(a[i, c])), a[r]))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def rank(mat, field: Field) -> int:
    return rref(mat, field)[0].shape[0]


def reduce_vector(r, pivots, v, field: Field):
    """Residual of v after elimination against an rref matrix."""
    v = np.array(v, dtype=np.int64)
    for i, c in enumerate(pivots):
        if v[c]:
            v = field.vadd(v, field.vmul(field.neg(int(v[c])), r[i]))
    return v


def in_rowspace(r, pivots, v, field: Field) -> bool:
    return not reduce_vector(r, pivots, v, field).any()


def nullspace(mat, field: Field):
    """Basis of the right null space, one vector per row (may be empty)."""
    a = np.asarray(mat, dtype=np.int64)
    _, cols = a.shape
    r, pivots = rref(a, field)
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        out[i, fc] = 1
        for j, pc in enumerate(pivots):
            out[i, pc] = field.neg(int(r[j, fc]))
    return out


def matmul(a, b, field: Field):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[1] != b.shape[0]:
        raise CodeError("matmul shape mismatch")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        out = field.vadd(out, field.vmul(a[:, k:k + 1], b[k:k + 1, :]))
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

