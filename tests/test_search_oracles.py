"""The witness search, which finds each information set by eliminating the
smaller of G and H, against the per-set search it replaced: a full rref of
the generator with the syndrome columns G.H1^T appended, kept here as an
oracle.  Also the vectorized null space against its double loop, and the
GF(2) product against the log/antilog route."""

import random

import numpy as np
import pytest

from qct import families, gflinalg, lincode
from qct.galois import build_field
from qct.lincode import LinearCode

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]


def oracle_witness_search(code, exclude, target):
    """The search as first written: each information set is a full rref of
    [G | G.H1^T][:, perm + tail], with k pivot steps."""
    f = code.field
    n = code.n
    g = code.matrix
    if exclude is not None:
        g = np.concatenate(
            [g, gflinalg.matmul(g, exclude.parity_check().T, f)], axis=1)
    wc = -(-n // 64) if f.p == 2 else n
    add = lincode._plane_adder(f.p)
    rng = random.Random(0)
    perm = list(range(n))
    tail = list(range(n, g.shape[1]))
    best_w, best = n + 1, None
    for _ in range(lincode._SEARCH_SETS):
        rng.shuffle(perm)
        r, _ = gflinalg.rref(g[:, perm + tail], f)
        k = len(r)
        rows = lincode._digit_planes(
            f, f.vmul(np.arange(1, f.order)[:, None, None], r[None]), n)
        rows = rows.reshape(-1, *rows.shape[2:])
        table = np.concatenate([np.zeros_like(rows[:1]), rows])
        step = max(1, lincode._SEARCH_BYTES // table.nbytes)
        for i in range(0, k, step):
            block = add(rows[i:min(i + step, k), None], table[None])
            block = block.reshape(-1, *table.shape[1:])
            weights = lincode._weights(f, block, n, wc, exclude is not None)
            if exclude is None:
                weights[weights == 0] = n + 1
            j = int(np.argmin(weights))
            if weights[j] < best_w:
                best_w, best = int(weights[j]), np.empty(n, dtype=np.int64)
                best[perm] = lincode._word(f, block[j], n, wc)
            if best_w <= target:
                return best_w, best
    return best_w, best


def oracle_nullspace(mat, field):
    """The null space as first written: a double loop over free columns
    and pivots."""
    a = np.asarray(mat, dtype=np.int64)
    _, cols = a.shape
    r, pivots = gflinalg.rref(a, field)
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        out[i, fc] = 1
        for j, pc in enumerate(pivots):
            out[i, pc] = field.neg(int(r[j, fc]))
    return out


def random_code(f, n, k, rng):
    """A random [n,k] code over f (rows redrawn until the rank is k)."""
    while True:
        c = LinearCode(f, rng.integers(0, f.order, (k, n)))
        if c.k == k:
            return c


def random_subcode(code, k1, rng):
    """A nonzero subcode spanned by k1 random combinations of the rows."""
    f = code.field
    while True:
        mix = rng.integers(0, f.order, (k1, code.k))
        sub = gflinalg.matmul(mix, code.matrix, f)
        if sub.any():
            return LinearCode(f, sub)


def dimensions(n):
    """k = 1, 2k = n - 1, 2k = n, 2k = n + 1, k = n - 1 and k = n, where
    the parity of n allows."""
    return sorted({k for k in (1, (n - 1) / 2, n / 2, (n + 1) / 2, n - 1, n)
                   if k == int(k) and k >= 1}, key=int)


CASES = [(p, e, n, int(k)) for p, e in FIELDS for n in (9, 10)
         for k in dimensions(n)]


def case_id(case):
    p, e, n, k = case
    return f"GF{p ** e}-[{n},{k}]"


def test_dimensions_cover_every_boundary():
    ks = {(n, k) for _, _, n, k in CASES}
    assert {(9, 1), (9, 4), (9, 5), (9, 8), (9, 9),
            (10, 5), (10, 9), (10, 10)} <= ks


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_systematic_is_the_rref_of_the_permuted_generator(case):
    p, e, n, k = case
    f = build_field(p, e)
    rng = np.random.default_rng(1000 * n + 10 * k + p ** e)
    for _ in range(3):
        code = random_code(f, n, k, rng)
        perms = [list(range(n)), list(range(n))[::-1],
                 *(rng.permutation(n).tolist() for _ in range(6))]
        for perm in perms:
            r, piv = lincode._systematic(code, perm)
            want, want_piv = gflinalg.rref(code.matrix[:, perm], f)
            assert r.dtype == want.dtype and np.array_equal(r, want)
            assert piv == want_piv and all(type(c) is int for c in piv)


@pytest.mark.parametrize("case", CASES, ids=case_id)
@pytest.mark.parametrize("target", [1, 3])
def test_witness_search_matches_full_rref_oracle(case, target):
    p, e, n, k = case
    f = build_field(p, e)
    rng = np.random.default_rng(2000 * n + 10 * k + p ** e)
    code = random_code(f, n, k, rng)
    inners = [None, *(random_subcode(code, k1, rng)
                      for k1 in sorted({1, k // 2, k - 1} - {0, k}))]
    for inner in inners:
        got = lincode._witness_search(code, inner, target)
        want = oracle_witness_search(code, inner, target)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("i", [2, 3])
def test_witness_search_matches_oracle_on_charpin_pairs(i):
    """C1 = B(2^i+1)^perp < C2 = B_i of charpin_family(7, i) (its family 2
    is a formula record at m = 7), the dual pair, and both outer codes
    alone; every search runs all information sets (target 1)."""
    bi = families.preparata_like_bi(7, i)
    bdelta = families.bch_narrow_sense(build_field(2, 1), 127, 2 ** i + 1)
    assert bi.contains_code(bdelta.dual()) and 2 * bi.k > bi.n
    for code, inner in [(bi, bdelta.dual()), (bdelta, bi.dual()),
                        (bi, None), (bdelta, None)]:
        got = lincode._witness_search(code, inner, 1)
        want = oracle_witness_search(code, inner, 1)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)])
def test_nullspace_matches_loop_oracle(p, e):
    f = build_field(p, e)
    rng = np.random.default_rng(p ** e)
    shapes = [(1, 1), (1, 6), (3, 3), (4, 9), (9, 4), (6, 12), (12, 12)]
    for rows, cols in shapes:
        for rank in sorted({0, 1, min(rows, cols) // 2, min(rows, cols)}):
            for _ in range(3):
                # a product of random factors, so rank deficits occur
                a = gflinalg.matmul(rng.integers(0, f.order, (rows, rank)),
                                    rng.integers(0, f.order, (rank, cols)), f)
                got = gflinalg.nullspace(a, f)
                want = oracle_nullspace(a, f)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert not gflinalg.matmul(a, got.T, f).any()


def oracle_vmul(f, a, b):
    """The log/antilog product."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    prod = f.exp[(f.log[np.where(a != 0, a, 1)]
                  + f.log[np.where(b != 0, b, 1)]) % (f.order - 1)]
    return np.where((a != 0) & (b != 0), prod, 0)


def test_binary_vmul_matches_log_antilog():
    f = build_field(2, 1)
    for a in (0, 1):
        for b in (0, 1):
            assert f.vmul(a, b) == oracle_vmul(f, a, b) == a * b
    rng = np.random.default_rng(2)
    shapes = [((5,), (5,)), ((3, 1), (4,)), ((1, 1, 1), (2, 3, 7)),
              ((2, 1, 6), (1, 4, 1)), ((), (8,)), ((0,), (0,)),
              ((2, 3), ())]
    for sa, sb in shapes:
        a = rng.integers(0, 2, sa)
        b = rng.integers(0, 2, sb)
        got, want = f.vmul(a, b), oracle_vmul(f, a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
