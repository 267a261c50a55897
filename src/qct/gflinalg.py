"""Dense linear algebra over a Field, on numpy integer matrices."""

from __future__ import annotations

import numpy as np

from .errors import CodeError, SearchCapExceeded
from .galois import Field

# rows * min(rows, cols) * cols an rref may take: n = 2047 binary BCH codes
# (8.5e9, 25-31 s on a 2-core Xeon VM) pass, n = 4095 (6.8e10) does not
_RREF_BUDGET = 1 << 34


def rref(mat, field: Field):
    """Reduced row echelon form. Returns (R, pivot_columns); zero rows dropped.

    Each pivot clears its column from every other row in one vectorized
    update: over GF(2) the pivot row XORed in place into the rows with a 1
    there, otherwise a vmul and a vadd, one table lookup each for q <=
    galois.TABLE_MAX, log/antilog and base-p digits above it.  A matrix
    whose shape allows more than _RREF_BUDGET entry updates (rows * rank
    bound * cols) raises SearchCapExceeded before any elimination."""
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
        if field.order == 2:   # the coefficient is 1 and addition is XOR
            a[others] ^= a[r]
        elif others.size:
            coef = field.vneg(a[others, c])
            a[others] = field.vadd(a[others], field.vmul(coef[:, None], a[r]))
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rank(mat, field: Field) -> int:
    return rref(mat, field)[0].shape[0]


def reduce_vector(r, pivots, v, field: Field):
    """Residual of v after elimination against an rref matrix r with pivots
    P; v may be one vector or a matrix whose rows are reduced together.

    It is v - v[:, P].r, one product: since r[:, P] = I, eliminating one
    pivot leaves v's entries at the other pivots as they are, so each
    pivot's coefficient is v's own entry there."""
    v = np.asarray(v, dtype=np.int64)
    rows = v.reshape(-1, v.shape[-1])
    coef = matmul(rows[:, pivots], r, field)
    return field.vadd(rows, field.vneg(coef)).reshape(v.shape)


def in_rowspace(r, pivots, v, field: Field) -> bool:
    """True iff v (or every row of v) lies in the row space of r."""
    return not reduce_vector(r, pivots, v, field).any()


def complement(r, pivots, field: Field):
    """The right null space of r, given r[:, pivots] = I (an rref and its
    pivots), in systematic form: one row per other column c, ascending,
    with 1 at c and -r[:, c] at the pivots.  Returns (rows, those columns)."""
    mask = np.ones(r.shape[1], dtype=bool)
    mask[pivots] = False
    free = mask.nonzero()[0]
    out = np.zeros((len(free), r.shape[1]), dtype=np.int64)
    out[np.arange(len(free)), free] = 1
    out[:, pivots] = field.vneg(r[:, free]).T
    return out, free


def perp_rref(r, pivots, field: Field, perm=None):
    """The rref of the null space of r with its columns in the order `perm`
    (all columns, in order, by default), and its pivots, given r[:, pivots]
    = I: min(k, n - k) pivot steps for a k x n matrix r.

    When k >= n - k it is the rref of complement(r)[:, perm], n - k steps.
    Otherwise it takes the rref B of r[:, perm] with its columns reversed,
    k steps.  B reversed in rows and columns is zero right of each pivot, so
    its complement is already an rref; the rref is unique, so that is the
    same matrix, with the same pivots, as the other route."""
    n = r.shape[1]
    perm = np.arange(n) if perm is None else np.asarray(perm)
    if 2 * len(r) >= n:
        return rref(complement(r, pivots, field)[0][:, perm], field)
    b, rev = rref(r[:, perm[::-1]], field)
    out, free = complement(b[::-1, ::-1], [n - 1 - c for c in reversed(rev)],
                           field)
    return out, free.tolist()


def matmul(a, b, field: Field):
    """a.b over the field, in one integer product per base-p digit plane of
    a, with no loop over the inner index.

    An element is the sum of its base-p digits a_s times x^s, so a.b is
    the sum over s of a_s.(x^s.b): plane s of a (integers 0..p-1) times
    the base-p digits of the field matrix x^s.b, all digits in one product;
    each output digit is summed over s and reduced mod p at the end.  Over
    GF(p) that is (a @ b) mod p.  The products are float64, whose integer
    sums are exact while e.K.(p - 1)^2 < 2^53 for inner size K; since
    p^e <= SIZE_CAP = 2^16 keeps e.(p - 1)^2 below 2^32, every K < 2^21 is
    exact, and a K past the bound raises CodeError.  Temporaries are e
    times the size of a (all its digits), of b (the digits of one x^s.b at
    a time) and of the output."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    (rows, inner), cols = a.shape, b.shape[1]
    if inner != b.shape[0]:
        raise CodeError("matmul shape mismatch")
    p, e = field.p, field.e
    if e * inner * (p - 1) ** 2 >= 1 << 53:
        raise CodeError(f"matmul over {field} with inner size {inner}: float64 "
                        f"sums would not be exact")
    planes = field.digits(a)
    acc = 0
    for s in range(e):   # digit t of x^s.b is digits[t], no copy
        digits = field.digits(field.vmul(p ** s, b)).transpose(2, 0, 1)
        acc = acc + planes[..., s] @ digits.astype(np.float64)
    return field.from_digits(acc.astype(np.int64).transpose(1, 2, 0) % p)


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

