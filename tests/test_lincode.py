import itertools
import tracemalloc

import numpy as np
import pytest

from qct import families, gflinalg, lincode
from qct.errors import CodeError, PreconditionError, SearchCapExceeded
from qct.galois import build_field, field_from_q, get_embedding, standard_basis
from qct.lincode import (Bound, LinearCode, code_from_json, direct_sum, expand_basis,
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


def _random_boundary_pair(q, n, k, seed):
    """A random [n,k]_q code, and the subcode spanned by its lightest rref
    row, so that the relative walk must pass over that word."""
    f, rng = field_from_q(q), np.random.default_rng(seed)
    while True:
        mat = rng.integers(0, q, (k, n)) * (rng.random((k, n)) < 0.5)
        code = LinearCode(f, mat)
        if code.k == k:
            break
    light = code.matrix[np.argmin(np.count_nonzero(code.matrix, axis=1))]
    return code, LinearCode(f, light[None])


def _heavy_pair(n, width):
    """The [n,2]_2 code spanned by the all-one word and `width` leading
    ones, over the [n,1]_2 repetition code."""
    ones = np.ones(n, dtype=np.int64)
    rows = np.stack([ones, (np.arange(n) < width).astype(np.int64)])
    return LinearCode(F2, rows), LinearCode(F2, ones[None])


def _two_syndrome_words():
    """A [70,3]_2 code over the [70,1]_2 repetition code.  The syndrome of
    a word x is x_i + x_69 for i < 69, 69 bits in two uint64 words, and
    e_64, the lightest word outside the inner code, has its syndrome in the
    second word only."""
    ones = np.ones(70, dtype=np.int64)
    rows = np.stack([ones, np.eye(70, dtype=np.int64)[64],
                     (np.arange(70) < 3).astype(np.int64)])
    return LinearCode(F2, rows), LinearCode(F2, ones[None])


def _light_inner_pair(p, e):
    """A [14,6] code over a [14,4] subcode of weight-2 words along a path
    of 5 positions.  Two more rows, ones on the other 9 positions and on 5
    of them, put every word outside the subcode at weight 4 or more, so a
    walk passes many lighter words of C1."""
    f = build_field(p, e)
    path = np.zeros((4, 14), dtype=np.int64)
    for i in range(4):
        path[i, i], path[i, i + 1] = 1, f.neg(1)
    extra = np.zeros((2, 14), dtype=np.int64)
    extra[0, 5:], extra[1, 5:10] = 1, 1
    return LinearCode(f, np.concatenate([path, extra])), LinearCode(f, path)


def _mixed_inner_pair(q, n, k, seed):
    """A random [n,k]_q code over a subcode spanned by two random words of
    it, so that words of the subcode mix the low and the high rows of a
    walk and their syndromes cancel across a block's offset."""
    f, rng = field_from_q(q), np.random.default_rng(seed)
    mat = rng.integers(0, q, (k, n)) * (rng.random((k, n)) < 0.6)
    code = LinearCode(f, mat)
    mix = rng.integers(0, q, (2, k))
    return code, LinearCode(f, gflinalg.matmul(mix, code.matrix, f))


BOUNDARY_CASES = {
    # the codeword ends just before, at and after a uint64 word
    **{f"GF{q}-n{n}": (lambda q=q, n=n, k=k: _random_boundary_pair(q, n, k, n))
       for q, k in ((2, 5), (4, 3)) for n in (63, 64, 65, 128)},
    "GF2-syndrome-in-two-words": _two_syndrome_words,
    "GF16-four-planes": lambda: _random_boundary_pair(16, 20, 2, 16),
    "GF9-odd-two-planes": lambda: _random_boundary_pair(9, 24, 3, 9),
    "GF25-odd-two-planes": lambda: _random_boundary_pair(25, 16, 2, 25),
    # weights and the marker n + 1 past uint8
    "GF2-n255": lambda: _heavy_pair(255, 200),
    "GF2-n300": lambda: _heavy_pair(300, 150),
    # C1 words lighter than wt(C2 \ C1), in many blocks at 64 bytes
    **{f"GF{p ** e}-light-inner": (lambda p=p, e=e: _light_inner_pair(p, e))
       for p, e in ((2, 1), (3, 1), (2, 2))},
    # odd p: a syndrome cancels its offset only when negated digit by digit
    "GF5-mixed-inner": lambda: _mixed_inner_pair(5, 10, 4, 6),
    "GF9-mixed-inner": lambda: _mixed_inner_pair(9, 10, 3, 6),
}


@pytest.mark.parametrize("case", BOUNDARY_CASES)
def test_kernel_boundary_shapes(case, monkeypatch):
    """Value and witness, absolute and relative, against the naive oracle.
    At the default _TABLE_BYTES the whole code is the table (t = k); at 64
    bytes the walk spans several blocks."""
    code, inner = BOUNDARY_CASES[case]()
    want = naive_first_minimum(code), naive_first_minimum(code, inner)
    for table_bytes in (lincode._TABLE_BYTES, 64):
        monkeypatch.setattr(lincode, "_TABLE_BYTES", table_bytes)
        assert lincode._enumerate(code, None) == want[0]
        assert lincode._enumerate(code, inner) == want[1]


@pytest.mark.parametrize("case", ["GF2-syndrome-in-two-words",
                                  "GF16-four-planes", "GF9-odd-two-planes"])
def test_relative_walk_builds_codeword_planes(case, monkeypatch):
    """A relative walk weighs blocks of the n codeword digits only.  The
    digit planes are made once per walk, those of the codeword rows
    (width n) and those of their syndromes S = G2.H1^T (width n - k1), and
    S is one _syndromes product per walk, over one block or several."""
    code, inner = BOUNDARY_CASES[case]()
    planes, syndromes = lincode._digit_planes, lincode._syndromes
    weights = lincode._weights
    codeword_rows = planes(code.field, np.zeros(code.n, np.int64)).size
    widths, products, blocks = [], [], []

    def planes_spy(f, vals, *rest):
        widths.append(vals.shape[-1])
        return planes(f, vals, *rest)

    def syndromes_spy(*args):
        products.append(args)
        return syndromes(*args)

    def weights_spy(f, block, *rest):
        blocks.append(len(block))
        return weights(f, block, *rest)

    monkeypatch.setattr(lincode, "_digit_planes", planes_spy)
    monkeypatch.setattr(lincode, "_syndromes", syndromes_spy)
    monkeypatch.setattr(lincode, "_weights", weights_spy)
    want = naive_first_minimum(code, inner)
    for table_bytes in (lincode._TABLE_BYTES, 64):
        monkeypatch.setattr(lincode, "_TABLE_BYTES", table_bytes)
        widths.clear()
        products.clear()
        blocks.clear()
        assert lincode._enumerate(code, inner) == want
        assert widths == [code.n, code.n - inner.k]
        assert len(products) == 1
        assert blocks and set(blocks) == {codeword_rows}


def test_walk_over_wide_digits(monkeypatch):
    """For p > 127 a digit plane holds uint16 digits, and the odd-p scratch
    half of the walk's buffer still takes one bool mark per digit: a
    [4,2]_131 code, absolute and over a [4,1] subcode, against the naive
    oracle in one block and in several."""
    f = build_field(131, 1)
    code = LinearCode(f, np.random.default_rng(135).integers(0, 131, (2, 4)))
    inner = LinearCode(f, code.matrix[:1])
    assert lincode._multiples(f, code.matrix).dtype == np.uint16
    want = naive_first_minimum(code), naive_first_minimum(code, inner)
    for table_bytes in (lincode._TABLE_BYTES, 64):
        monkeypatch.setattr(lincode, "_TABLE_BYTES", table_bytes)
        assert lincode._enumerate(code, None) == want[0]
        assert lincode._enumerate(code, inner) == want[1]


def test_walk_over_budget_raises_before_the_table(monkeypatch):
    """A walk that would visit more words than _WALK_BUDGET raises
    SearchCapExceeded before any table is built; at the budget it runs.
    The [7,4]_2 walk visits 16 words."""
    monkeypatch.setattr(lincode, "_WALK_BUDGET", 16)
    assert min_distance(hamming()).value == 3
    monkeypatch.setattr(lincode, "_WALK_BUDGET", 15)

    def no_table(p):
        def add(*args, **kwargs):
            raise AssertionError("table built")
        return add
    monkeypatch.setattr(lincode, "_plane_adder", no_table)
    code = hamming()
    with pytest.raises(SearchCapExceeded, match="up to 16 words, over the "
                                                "budget 15"):
        min_distance(code, cap=2 ** 60)
    assert code.distance_info is None
    with pytest.raises(SearchCapExceeded, match="up to 16 words"):
        relative_min_weight(code, LinearCode(F2, HAMMING[:1]))


def test_witness_search_over_budget_raises_before_the_rows(monkeypatch):
    """A witness search whose c.R_j digits would take more int64 bytes than
    _SEARCH_ROWS_BUDGET raises SearchCapExceeded before _digit_planes; at
    the budget it runs.  For the [7,4]_2 code that is 1 * 4 * 1 * 7 * 8 =
    224 bytes, and 1 * 4 * 1 * (7 + 6) * 8 = 416 with the syndrome columns
    of a [7,1] inner code."""
    monkeypatch.setattr(lincode, "_SEARCH_ROWS_BUDGET", 224)
    assert min_distance(hamming(), cap=1).upper == 3
    monkeypatch.setattr(lincode, "_SEARCH_ROWS_BUDGET", 223)

    def no_planes(*args):
        raise AssertionError("digit planes built")
    monkeypatch.setattr(lincode, "_digit_planes", no_planes)
    with pytest.raises(SearchCapExceeded, match="the candidate rows take "
                                                "224 bytes, over the budget "
                                                "223"):
        min_distance(hamming(), cap=1)
    monkeypatch.setattr(lincode, "_SEARCH_ROWS_BUDGET", 415)
    with pytest.raises(SearchCapExceeded, match="take 416 bytes"):
        relative_min_weight(hamming(), LinearCode(F2, HAMMING[:1]), cap=1)


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
    # a puncture carries the design distance minus one while that is >= 2
    bch = families.bch_narrow_sense(F2, 15, 5)
    assert bch.design_distance == 5
    assert bch.puncture().design_distance == 4
    assert bch.puncture().puncture().design_distance == 3
    assert min_distance(bch.puncture()).value == 4
    assert LinearCode(F2, HAMMING, design_distance=3).puncture() \
        .design_distance == 2
    assert LinearCode(F2, HAMMING, design_distance=2).puncture() \
        .design_distance is None
    assert p.design_distance is None
    # duals and parity extensions carry none
    assert bch.dual().design_distance is None
    assert bch.extend_parity().design_distance is None


@pytest.mark.parametrize("table_bytes", [None, 64])
def test_design_distance_above_minimum_is_refuted(table_bytes, monkeypatch):
    """A [7,4,3] code that claims design distance 4: the walk meets a
    weight-3 word, so the claim is refuted, never reported as an exact 4."""
    if table_bytes is not None:
        monkeypatch.setattr(lincode, "_TABLE_BYTES", table_bytes)
    c = LinearCode(F2, HAMMING, design_distance=4)
    with pytest.raises(CodeError, match="weight 3 refutes .* lower bound 4"):
        min_distance(c)
    assert c.distance_info is None
    with pytest.raises(CodeError, match="weight 3 refutes .* lower bound 4"):
        relative_min_weight(c, c.dual())


def test_hermitian_dual_gf4():
    g = np.array([[1, 1]], dtype=np.int64)
    c = LinearCode(F4, g)
    hd = c.hermitian_dual()
    assert hd == c
    # Hermitian dual = Euclidean dual of the conjugated code
    assert c.conjugated().dual() == hd


def test_conjugation_keeps_distance_certificates():
    """Conjugation keeps weights, so d(conj C_s) is exact by the BCH bound
    of C_s, as d(C_s) is."""
    c = families.negacyclic_cs(9, 8, 4)
    conj = c.conjugated()
    assert conj.design_distance == c.design_distance
    res = min_distance(conj)
    assert (res.value, res.kind) == (3, "exact")


def test_mds_and_witness():
    from qct.families import rs_code
    rs = rs_code(4, 2)
    assert (rs.n, rs.k) == (3, 2)
    assert min_distance(rs).value == 2
    assert is_mds(rs)
    w = mds_witness(rs)
    assert w is not None and sum(1 for x in w if x) == 2
    assert not is_mds(hamming())
    # eliminating coordinate 0 of a non-MDS [4,2] code leaves a weight-1 word
    with pytest.raises(CodeError, match="MDS witness of weight 1"):
        mds_witness(LinearCode(build_field(2, 1), [[1, 0, 0, 0], [0, 1, 0, 0]]))


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
    assert res.kind == "exact" and res.method == "enumeration"
    assert res.exact
    assert res.witness is not None
    assert sum(1 for x in res.witness if x) == res.value


def test_bound_rejects_inconsistent_labels():
    with pytest.raises(CodeError):
        Bound(3, "probably", "enumeration")
    with pytest.raises(CodeError):
        Bound(3, "lower_bound", "bch_bound", witness=(1, 1, 1))
    with pytest.raises(CodeError):
        Bound(3, "exact", "enumeration", upper=4)
    assert not Bound(3, "declared", "formula").exact
    assert Bound(3, "lower_bound", "bch_bound", upper=4).to_json() == {
        "value": 3, "exactness": "lower_bound", "method": "bch_bound",
        "upper": 4}


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


def test_witness_search_on_large_code():
    """Above the cap: exact iff the checked witness meets the certified
    bound, which for this code without a design distance is d >= 2."""
    rng = np.random.default_rng(3)
    mat = rng.integers(0, 2, (30, 40)).astype(np.int64)
    c = LinearCode(F2, mat)
    res = min_distance(c, cap=2 ** 10)
    certified = 1 if any(np.count_nonzero(r) == 1 for r in c.matrix) else 2
    w, word = lincode._witness_search(c, None, certified)
    assert c.contains_word(word) and np.count_nonzero(word) == w
    assert res.exact == (w == certified)
    if res.exact:
        assert res.value == w and res.witness == tuple(int(x) for x in word)
    else:
        assert res.value == certified and res.upper == w >= res.value


@pytest.mark.parametrize("p", [3, 5, 127, 131, 251, 257, 65521])
def test_plane_adder_is_addition_mod_p(p):
    """The odd-p adder on the planes _digit_planes returns (uint8 up to
    p = 127, uint16 from p = 131, uint32 at p = 65521), against
    (a + b) % p on every pair of digits, or on the extreme digits and a
    sample of the rest when p is large."""
    f = build_field(p, 1)
    digits = np.arange(p, dtype=np.int64)
    if p > 257:
        sample = np.random.default_rng(p).integers(0, p, 300)
        digits = np.unique(np.concatenate([digits[:3], digits[-3:], sample]))
    a, b = digits.repeat(len(digits)), np.tile(digits, len(digits))
    pa = lincode._digit_planes(f, a)
    pb = lincode._digit_planes(f, b)
    assert pa.dtype == pb.dtype and pa.dtype.kind == "u"
    s = lincode._plane_adder(p)(pa, pb)
    assert s.dtype == pa.dtype
    assert np.array_equal(s[0].astype(np.int64), (a + b) % p)


def test_rref_budget_is_checked_on_shape(monkeypatch):
    """A matrix over the budget raises before any elimination; at the
    budget it is eliminated."""
    mat = np.array([[1, 2, 3, 1], [2, 1, 0, 3], [3, 3, 1, 2]], dtype=np.int64)
    want = gflinalg.rref(mat, F4)
    monkeypatch.setattr(gflinalg, "_RREF_BUDGET", 3 * 3 * 4)
    assert np.array_equal(gflinalg.rref(mat, F4)[0], want[0])
    monkeypatch.setattr(gflinalg, "_RREF_BUDGET", 3 * 3 * 4 - 1)

    def no_elimination(*args):
        raise AssertionError("elimination started")
    for op in ("vmul", "vadd", "vneg"):
        monkeypatch.setattr(F4, op, no_elimination)
    with pytest.raises(SearchCapExceeded, match="3 x 4 matrix"):
        gflinalg.rref(mat, F4)
    with pytest.raises(SearchCapExceeded, match="4 x 3 matrix"):
        gflinalg.rref(mat.T, F4)


def test_code_over_the_rref_budget_makes_no_copy_of_its_rows(monkeypatch):
    """LinearCode hands an int64 generator to rref as it is, so a refused
    8 MB matrix costs no second generator-sized array."""
    rows = np.ones((1000, 1000), dtype=np.int64)
    monkeypatch.setattr(gflinalg, "_RREF_BUDGET", 100)
    tracemalloc.start()
    try:
        with pytest.raises(SearchCapExceeded, match="1000 x 1000 matrix"):
            LinearCode(F2, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes // 8
