import itertools

import numpy as np
import pytest

from qct import gflinalg, lincode
from qct.errors import CodeError, PreconditionError
from qct.galois import build_field, get_embedding, standard_basis
from qct.lincode import (LinearCode, code_from_json, direct_sum, expand_basis,
                         expand_with_parity, is_mds, mds_witness, min_distance,
                         relative_min_weight)

F2 = build_field(2, 1)
F4 = build_field(2, 2)

HAMMING = np.array([[1, 0, 0, 0, 0, 1, 1],
                    [0, 1, 0, 0, 1, 0, 1],
                    [0, 0, 1, 0, 1, 1, 0],
                    [0, 0, 0, 1, 1, 1, 1]], dtype=np.int64)


def hamming():
    return LinearCode(F2, HAMMING)


def naive_distance(code):
    """Independent double-loop oracle over all nonzero messages."""
    best = None
    q, k = code.field.order, code.k
    for msg in itertools.product(range(q), repeat=k):
        if not any(msg):
            continue
        word = [0] * code.n
        for i, m in enumerate(msg):
            if m:
                for j in range(code.n):
                    word[j] = code.field.add(
                        word[j], code.field.mul(m, int(code.matrix[i, j])))
        w = sum(1 for x in word if x)
        best = w if best is None else min(best, w)
    return best


def naive_first_minimum(code, exclude=None):
    """Independent double-loop oracle: the minimum weight over nonzero
    codewords outside `exclude`, and the first codeword of that weight with
    messages in index order (row 0 the least-significant digit)."""
    f, q, k = code.field, code.field.order, code.k
    best_w, best = code.n + 1, None
    for idx in range(1, q ** k):
        word = [0] * code.n
        for i in range(k):
            m = idx // q ** i % q
            if m:
                for j in range(code.n):
                    word[j] = f.add(word[j], f.mul(m, int(code.matrix[i, j])))
        if exclude is not None and exclude.contains_word(word):
            continue
        w = sum(1 for x in word if x)
        if 0 < w < best_w:
            best_w, best = w, tuple(word)
    return best_w, best


def random_nested_pair(rng, f, k, n, density):
    """A random [n, <=k] code c2 (sparse entries make weight ties likely)
    and a random proper subcode c1, or None when the draw degenerates."""
    mat = rng.integers(0, f.order, (k, n)) * (rng.random((k, n)) < density)
    if not mat.any():
        return None
    c2 = LinearCode(f, mat)
    if c2.k < 2:
        return c2, None
    mix = rng.integers(0, f.order, (int(rng.integers(1, c2.k)), c2.k))
    sub = gflinalg.matmul(mix, c2.matrix, f)
    if not sub.any():
        return c2, None
    c1 = LinearCode(f, sub)
    return c2, (c1 if c1.k < c2.k else None)


def check_against_oracle(c2, c1):
    res = min_distance(LinearCode(c2.field, c2.matrix))
    assert (res.value, res.witness) == naive_first_minimum(c2)
    if c1 is not None:
        rel = relative_min_weight(c2, c1)
        assert (rel.value, rel.witness) == naive_first_minimum(c2, c1)


@pytest.mark.parametrize("table_bytes", [None, 64])
@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3),
                                 (3, 2)])
def test_kernel_first_minimum_matches_oracle(p, e, table_bytes, monkeypatch):
    """Value and witness of both kernel uses, with the low table holding all
    rows or, at 64 bytes, only some of them."""
    if table_bytes is not None:
        monkeypatch.setattr(lincode, "_TABLE_BYTES", table_bytes)
    f = build_field(p, e)
    rng = np.random.default_rng(100 * p + e)
    kmax = max(2, int(np.log(600) / np.log(f.order)))
    checked = 0
    for _ in range(6):
        k = int(rng.integers(2, kmax + 1))
        pair = random_nested_pair(rng, f, k, int(rng.integers(k + 1, 14)),
                                  density=rng.choice([0.3, 0.8]))
        if pair is not None:
            check_against_oracle(*pair)
            checked += pair[1] is not None
    assert checked >= 2


@pytest.mark.parametrize("n", [63, 64, 65, 75])
def test_kernel_binary_word_boundaries(n, monkeypatch):
    """Binary lengths on either side of one and two uint64 words."""
    monkeypatch.setattr(lincode, "_TABLE_BYTES", 256)
    rng = np.random.default_rng(n)
    for density in (0.1, 0.5):
        c2, c1 = random_nested_pair(rng, F2, 7, n, density)
        assert c1 is not None
        check_against_oracle(c2, c1)


def test_canonical_form_equality():
    c1 = hamming()
    perm = HAMMING[::-1].copy()
    c2 = LinearCode(F2, perm)
    assert c1 == c2 and hash(c1) == hash(c2)
    # scaled rows over GF(4) canonicalize too
    g = np.array([[2, 2, 0], [0, 0, 3]], dtype=np.int64)
    h = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
    assert LinearCode(F4, g) == LinearCode(F4, h)


def test_rejects_bad_matrices():
    with pytest.raises(CodeError):
        LinearCode(F2, np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(CodeError):
        LinearCode(F2, np.array([[0, 2]], dtype=np.int64))


def test_hamming_distance_and_dual():
    c = hamming()
    assert min_distance(c).value == 3
    d = c.dual()
    assert (d.n, d.k) == (7, 3)
    assert min_distance(d).value == 4
    assert d.dual() is c


def test_contains_and_allones():
    c = hamming()
    assert c.contains_allones()
    assert c.contains_code(c.dual())   # simplex inside Hamming
    assert not c.dual().contains_code(c)


def test_relative_min_weight():
    c = hamming()
    s = c.dual()
    assert relative_min_weight(c, s).value == 3
    w = relative_min_weight(s.dual(), c.dual())
    assert w.value == 4 or w.value >= 3  # simplex-level check below
    with pytest.raises(PreconditionError):
        relative_min_weight(s, c)


def test_puncture_and_extend():
    c = hamming()
    p = c.puncture()
    assert (p.n, p.k) == (6, 4)
    assert min_distance(p).value == 2
    e = c.extend_parity()
    assert (e.n, e.k) == (8, 4)
    assert min_distance(e).value == 4
    assert e == e.dual()   # extended Hamming is self-dual


def test_hermitian_dual_gf4():
    g = np.array([[1, 1]], dtype=np.int64)
    c = LinearCode(F4, g)
    hd = c.hermitian_dual()
    assert hd == c
    # Hermitian dual = Euclidean dual of the conjugated code
    assert c.conjugated().dual() == hd


def test_mds_and_witness():
    from qct.families import rs_code
    rs = rs_code(4, 2)
    assert (rs.n, rs.k) == (3, 2)
    assert min_distance(rs).value == 2
    assert is_mds(rs)
    w = mds_witness(rs)
    assert w is not None and sum(1 for x in w if x) == 2
    assert not is_mds(hamming())


def test_enumeration_matches_naive_oracle_small():
    rng = np.random.default_rng(7)
    fields = [build_field(2, 1), build_field(3, 1), build_field(2, 2),
              build_field(3, 2)]
    checked = 0
    for f in fields:
        for _ in range(12):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k, 9))
            mat = rng.integers(0, f.order, (k, n)).astype(np.int64)
            if not mat.any():
                continue
            c = LinearCode(f, mat)
            if f.order ** c.k > 2 ** 12:
                continue
            assert min_distance(c).value == naive_distance(c)
            checked += 1
    assert checked >= 30


def test_distance_result_fields():
    res = min_distance(hamming())
    assert res.exactness == "exact" and res.method == "enumeration"
    assert res.witness is not None
    assert sum(1 for x in res.witness if x) == res.value


def test_expand_basis():
    from qct.families import rs_code
    rs = rs_code(4, 2)
    basis = standard_basis(get_embedding(F2, F4))
    e = expand_basis(rs, basis)
    assert (e.n, e.k, e.field.order) == (6, 4, 2)
    assert min_distance(e).value == 2


def test_expand_with_parity():
    from qct.families import rs_code
    rs = rs_code(4, 2)
    basis = standard_basis(get_embedding(F2, F4))
    e = expand_with_parity(rs, basis)
    assert (e.n, e.k, e.field.order) == (9, 4, 2)
    assert e.declared_distance == 2 * (rs.n - rs.k + 1)
    assert min_distance(e).value == 4


def test_direct_sum():
    c = hamming()
    s = direct_sum(c, c.dual())
    assert (s.n, s.k) == (14, 7)
    assert s.dual() == direct_sum(c.dual(), c.dual().dual())


def test_json_roundtrip():
    c = hamming()
    min_distance(c)
    rec = c.to_json()
    again = code_from_json(rec)
    assert again == c
    assert again.to_json()["generator"] == rec["generator"]


def test_sampled_upper_bound_on_large_code():
    rng = np.random.default_rng(3)
    mat = rng.integers(0, 2, (30, 40)).astype(np.int64)
    c = LinearCode(F2, mat)
    res = min_distance(c, cap=2 ** 10)
    assert res.exactness == "lower_bound"
    assert res.upper is None or res.upper >= res.value
