"""The witness search, which finds each information set by eliminating the
smaller of G and H, against the per-set search it replaced: a full rref of
the generator with the syndrome columns G.H1^T appended, in the row-major
digit-plane layout the kernel used before, kept here as an oracle.  Also
gflinalg.complement against the null-space double loop, the dual and the
MDS witness read off the rref against the null-space routes they replaced,
and the GF(2) product against the log/antilog route."""

import random

import numpy as np
import pytest

from qct import families, gflinalg, lincode
from qct.galois import build_field
from qct.lincode import LinearCode
from test_lincode import BOUNDARY_CASES

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]


# The row-major digit-plane helpers the kernel used before its word-major
# layout, copied verbatim (less the Field annotations) as oracles, so that
# the oracle search shares no layout code with the search it checks.

def _digit_planes(f, vals: np.ndarray, n: int) -> np.ndarray:
    """Elements (..., N) -> base-p digit planes (..., e, W).

    For p = 2 each plane is packed little-endian into uint64 words, with
    positions [0, n) and [n, N) starting separate words; for odd p each
    digit is the smallest unsigned integer that holds 2(p - 1), the sum of
    two digits (see _plane_adder).
    """
    if f.p != 2:
        digits = (vals[..., None, :] // f.p ** np.arange(f.e)[:, None]) % f.p
        return digits.astype(np.min_scalar_type(2 * (f.p - 1)))
    digits = (vals[..., None, :] >> np.arange(f.e)[:, None]) & 1
    parts = []
    for part in (digits[..., :n], digits[..., n:]):
        pad = -part.shape[-1] % 64
        part = np.pad(part.astype(np.uint8),
                      [(0, 0)] * (part.ndim - 1) + [(0, pad)])
        parts.append(np.packbits(part, axis=-1, bitorder="little").view("<u8"))
    return np.concatenate(parts, axis=-1)


def _plane_adder(p: int):
    """Addition of digit planes: XOR of packed bits for p = 2, digitwise
    addition mod p otherwise.

    For odd p the planes are unsigned (see _digit_planes) and wide enough
    for s = a + b <= 2(p - 1), so 2^bits > p.  Then s - p wraps to
    s - p + 2^bits > s when s < p, and min(s, s - p) is s mod p without a
    branch or a mask."""
    if p == 2:
        return np.bitwise_xor

    def add(a, b):
        s = a + b
        return np.minimum(s, s - p, out=s)
    return add


def _weights(f, block: np.ndarray, n: int, wc: int,
             relative: bool) -> np.ndarray:
    """Hamming weights of a block of digit-plane words; with `relative`,
    words whose syndrome digits are all zero get weight n + 1."""
    nz = block[:, 0, :wc]
    for pl in range(1, f.e):
        nz = nz | block[:, pl, :wc]
    if f.p == 2:
        bits = np.bitwise_count(nz)
        weights = bits[:, 0].astype(np.int64)
        for w in range(1, wc):   # cheaper than a reduction over words
            weights += bits[:, w]
    else:
        weights = np.count_nonzero(nz, axis=1)
    if relative:
        inside = ~block[:, :, wc:].reshape(len(block), -1).any(axis=1)
        weights[inside] = n + 1
    return weights


def _word(f, planes: np.ndarray, n: int, wc: int) -> np.ndarray:
    """The length-n field vector held in one word's digit planes."""
    if f.p == 2:
        digits = np.unpackbits(planes[:, :wc].copy().view(np.uint8), axis=-1,
                               bitorder="little")[:, :n]
    else:
        digits = planes[:, :n]
    scale = (f.p ** np.arange(f.e))[:, None]
    return (digits.astype(np.int64) * scale).sum(axis=0)


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
    add = _plane_adder(f.p)
    rng = random.Random(0)
    perm = list(range(n))
    tail = list(range(n, g.shape[1]))
    best_w, best = n + 1, None
    for _ in range(lincode._SEARCH_SETS):
        rng.shuffle(perm)
        r, _ = gflinalg.rref(g[:, perm + tail], f)
        k = len(r)
        rows = _digit_planes(
            f, f.vmul(np.arange(1, f.order)[:, None, None], r[None]), n)
        rows = rows.reshape(-1, *rows.shape[2:])
        table = np.concatenate([np.zeros_like(rows[:1]), rows])
        step = max(1, lincode._SEARCH_BYTES // table.nbytes)
        for i in range(0, k, step):
            block = add(rows[i:min(i + step, k), None], table[None])
            block = block.reshape(-1, *table.shape[1:])
            weights = _weights(f, block, n, wc, exclude is not None)
            if exclude is None:
                weights[weights == 0] = n + 1
            j = int(np.argmin(weights))
            if weights[j] < best_w:
                best_w, best = int(weights[j]), np.empty(n, dtype=np.int64)
                best[perm] = _word(f, block[j], n, wc)
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


def oracle_dual(code):
    """The dual as first written: the null space of G, from one more rref of
    G, then its rref; no rows when k = n."""
    ns = oracle_nullspace(code.matrix, code.field)
    if not len(ns):
        return ns, []
    return gflinalg.rref(ns, code.field)


def oracle_mds_witness(code):
    """The MDS witness as first written: the combination of generator rows
    that vanishes on the first k - 1 coordinates, from a null space."""
    k, f = code.k, code.field
    combo = (oracle_nullspace(code.matrix[:, :k - 1].T, f)[0] if k > 1
             else np.eye(1, k, dtype=np.int64)[0])
    cw = gflinalg.matmul(combo[None], code.matrix, f)[0]
    return tuple(int(x) for x in cw)


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


@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_witness_search_matches_oracle_on_boundary_shapes(case):
    """The kernel's boundary shapes (word ends, a two-word syndrome, four
    planes, odd p with two planes, weights past uint8), absolute and
    relative; every search runs all information sets (target 1) unless it
    meets a weight-1 word."""
    code, inner = BOUNDARY_CASES[case]()
    for exclude in (None, inner):
        got = lincode._witness_search(code, exclude, 1)
        want = oracle_witness_search(code, exclude, 1)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("i", [2, 3])
def test_witness_search_matches_oracle_on_charpin_pairs(i, monkeypatch):
    """C1 = B(2^i+1)^perp < C2 = B_i of charpin_family(7, i) (its family 2
    is a formula record at m = 7), the dual pair, and both outer codes
    alone; every search runs all information sets (target 1).  A relative
    search makes its syndrome product once, in the first set: no later
    set meets a lighter candidate."""
    bi = families.preparata_like_bi(7, i)
    bdelta = families.bch_narrow_sense(build_field(2, 1), 127, 2 ** i + 1)
    assert bi.contains_code(bdelta.dual()) and 2 * bi.k > bi.n
    calls = []
    syndromes = lincode._syndromes
    monkeypatch.setattr(lincode, "_syndromes",
                        lambda *args: calls.append(1) or syndromes(*args))
    for code, inner in [(bi, bdelta.dual()), (bdelta, bi.dual()),
                        (bi, None), (bdelta, None)]:
        calls.clear()
        got = lincode._witness_search(code, inner, 1)
        assert len(calls) == (inner is not None)
        want = oracle_witness_search(code, inner, 1)
        assert got[0] == want[0] and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2)])
def test_witness_search_matches_oracle_when_it_stops_early(p, e):
    """Relative pairs whose search meets its target (n // 5 or n // 4)
    after a block that is not the last, so a different block partition
    would return a different word: C2 of n = 120-200, k2 = 90-100, over a
    random C1 of half its dimension."""
    f = build_field(p, e)
    rng = np.random.default_rng(17000 + p ** e)
    early = 0
    for n, k2 in [(120, 100), (140, 90), (200, 100)]:
        code = random_code(f, n, k2, rng)
        inner = random_subcode(code, k2 // 2, rng)
        for target in (n // 5, n // 4):
            got = lincode._witness_search(code, inner, target)
            want = oracle_witness_search(code, inner, target)
            assert got[0] == want[0] and np.array_equal(got[1], want[1])
            early += got[0] <= target
    assert early >= 2


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
                r, pivots = gflinalg.rref(a, f)
                got, free = gflinalg.complement(r, pivots, f)
                want = oracle_nullspace(a, f)
                assert got.dtype == want.dtype and np.array_equal(got, want)
                assert free.tolist() == [c for c in range(cols)
                                         if c not in pivots]
                assert not gflinalg.matmul(a, got.T, f).any()


def test_rref_of_no_rows_has_no_pivots():
    f = build_field(3, 1)
    r, pivots = gflinalg.rref(np.zeros((0, 5), dtype=np.int64), f)
    assert r.shape == (0, 5) and r.dtype == np.int64 and pivots == []


DUAL_CASES = [(p, e, n, k) for p, e in FIELDS for n in (8, 10)
              for k in range(n + 1)]


@pytest.mark.parametrize("case", DUAL_CASES, ids=case_id)
def test_dual_matches_nullspace_oracle(case):
    """Every k from rank 0 to n: the dual is the rref of the null space,
    pivots included, whichever route gflinalg.perp_rref takes (the
    reversed rref of G for 2k < n, the rref of the complement otherwise),
    and the dual of a fresh copy of the dual (the other route, unless
    2k = n) is the code again."""
    p, e, n, k = case
    f = build_field(p, e)
    rng = np.random.default_rng(3000 * n + 10 * k + p ** e)
    for _ in range(3):
        code = (random_code(f, n, k, rng) if k
                else LinearCode(f, np.zeros((1, n), dtype=np.int64)))
        want, want_piv = oracle_dual(code)
        d = code.dual()
        assert d.matrix.dtype == want.dtype and np.array_equal(d.matrix, want)
        assert d.pivots == want_piv and d.k == n - k
        assert d.dual() is code
        assert not gflinalg.matmul(code.matrix, d.matrix.T, f).any()
        if d.k:
            again = LinearCode(f, d.matrix).dual()
            assert again == code and again.pivots == code.pivots
    if k == 0:
        assert np.array_equal(code.dual().matrix, np.eye(n, dtype=np.int64))


RS_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
             37, 41, 43, 47, 49, 53, 59, 61, 64]
NEGACYCLIC = [(q, n, s) for q, n in [(5, 4), (9, 4), (9, 8), (13, 4), (13, 6)]
              for s in range(2, n + 1, 2)]


@pytest.mark.parametrize("q", RS_ORDERS)
def test_mds_witness_matches_nullspace_oracle_on_rs(q):
    for k in range(1, q):
        code = families.rs_code(q, k)
        want = oracle_mds_witness(code)
        assert lincode.mds_witness(code) == want
        assert code.distance_info.witness == want


def test_mds_witness_matches_nullspace_oracle_on_negacyclic():
    for q, n, s in NEGACYCLIC:
        code = families.negacyclic_cs(q, n, s)
        want = oracle_mds_witness(code)
        assert lincode.mds_witness(code) == want
        assert code.distance_info.witness == want


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
