"""Oracle-equivalence property suites: basis-expansion duality, defining-set
versus matrix Hermitian duals, enumeration versus a naive weight oracle, the
Hermitian CSS pair versus naive relative weights, the witness search versus
enumeration, the vectorized elimination versus a per-row reference, the
one-product matmul and reduce_vector versus the loops they replaced, the
scalar-class walk of the enumeration kernel and its stop at a BCH design
distance versus the naive first-minimum oracle, and the enumerated distance
of random cyclic codes between their BCH and Singleton bounds."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qct import families, gflinalg, lincode, polyalg, quantum
from qct.errors import CodeError
from qct.galois import (ExtensionBasis, build_field, find_dual_basis,
                        get_embedding, standard_basis)
from qct.lincode import (LinearCode, expand_basis, min_distance,
                         relative_min_weight)
from test_lincode import naive_first_minimum

PAIRS = [((2, 1), (2, 2)), ((3, 1), (3, 2))]


def random_codes(field, rng, count, max_n=8):
    out = []
    while len(out) < count:
        k = int(rng.integers(1, max_n))
        n = int(rng.integers(k + 1, max_n + 1))
        mat = rng.integers(0, field.order, (k, n)).astype(np.int64)
        if not mat.any():
            continue
        c = LinearCode(field, mat)
        if 0 < c.k < c.n:
            out.append(c)
    return out


@pytest.mark.parametrize("sub_spec,ext_spec", PAIRS)
def test_phi_euclidean_duality(sub_spec, ext_spec):
    """Phi_{B_dual}(C^perp) equals Phi_B(C)^perp, as literal code equality."""
    sub, ext = build_field(*sub_spec), build_field(*ext_spec)
    emb = get_embedding(sub, ext)
    basis = standard_basis(emb)
    dual_basis = find_dual_basis(basis)
    rng = np.random.default_rng(11)
    for c in random_codes(ext, rng, 50):
        lhs = expand_basis(c.dual(), dual_basis)
        rhs = expand_basis(c, basis).dual()
        assert lhs == rhs


@pytest.mark.parametrize("sub_spec,ext_spec", PAIRS)
def test_phi_hermitian_duality_conjugated_dual_basis(sub_spec, ext_spec):
    """The Hermitian analogue holds with the conjugated dual basis:
    Phi_{(B_dual)^q}(C^perp_h) equals Phi_B(C)^perp."""
    sub, ext = build_field(*sub_spec), build_field(*ext_spec)
    emb = get_embedding(sub, ext)
    basis = standard_basis(emb)
    dual_basis = find_dual_basis(basis)
    conj = ExtensionBasis(emb, tuple(ext.pow(b, sub.order)
                                     for b in dual_basis.elements))
    assert gflinalg.rank(conj.gram(), sub) == len(conj.elements) == emb.m
    rng = np.random.default_rng(13)
    for c in random_codes(ext, rng, 50):
        lhs = expand_basis(c.hermitian_dual(), conj)
        rhs = expand_basis(c, basis).dual()
        assert lhs == rhs


def test_phi_hermitian_literal_dual_basis_fails_somewhere():
    """The unconjugated dual basis does not satisfy the identity in general;
    keep one concrete counterexample pinned down."""
    sub, ext = build_field(2, 1), build_field(2, 2)
    emb = get_embedding(sub, ext)
    basis = standard_basis(emb)
    dual_basis = find_dual_basis(basis)
    rng = np.random.default_rng(13)
    failures = 0
    for c in random_codes(ext, rng, 50):
        lhs = expand_basis(c.hermitian_dual(), dual_basis)
        rhs = expand_basis(c, basis).dual()
        failures += lhs != rhs
    assert failures > 0


def _negacyclic_defining_sets(n, q):
    """All proper nonempty q-closed subsets of O_n, as coset unions."""
    residues = sorted(polyalg.odd_residues(n))
    cosets, seen = [], set()
    for s in residues:
        if s in seen:
            continue
        orbit = set()
        x = s
        while x not in orbit:
            orbit.add(x)
            x = (x * q) % (2 * n)
        seen |= orbit
        cosets.append(frozenset(orbit))
    for r in range(1, len(cosets)):
        for combo in itertools.combinations(cosets, r):
            exps = frozenset().union(*combo)
            yield polyalg.DefiningSet("negacyclic", n, q, exps)


def test_hermitian_dual_defining_set_equals_matrix_dual():
    f9 = build_field(3, 2)
    checked = 0
    for n in (2, 4, 5, 7, 8, 10, 11):
        for t in _negacyclic_defining_sets(n, 9):
            code = families.cyclic_code_from_defining_set(t, f9)
            td = polyalg.hermitian_dual_defining_set(t, 3)
            assert len(td.exponents) < n
            from_sets = families.cyclic_code_from_defining_set(td, f9)
            assert from_sets == code.hermitian_dual()
            checked += 1
    assert checked >= 100


def naive_words(code):
    """Every codeword, one message at a time, in scalar field arithmetic."""
    f = code.field
    for msg in itertools.product(range(f.order), repeat=code.k):
        word = [0] * code.n
        for i, m in enumerate(msg):
            if m:
                for j in range(code.n):
                    word[j] = f.add(word[j], f.mul(m, int(code.matrix[i, j])))
        yield word


def naive_distance(code):
    return min(sum(1 for x in w if x) for w in naive_words(code) if any(w))


def naive_weight_outside_hdual(outer, code):
    """wt(outer \\ code^(perp h)): the least weight of a word of `outer`
    whose Hermitian product sum_i w_i r_i^q with some row r of `code` is
    not zero."""
    f = outer.field
    rows = [[f.conj(int(x)) for x in r] for r in code.matrix]

    def hdot(w, r):
        acc = 0
        for a, b in zip(w, r):
            acc = f.add(acc, f.mul(a, b))
        return acc
    return min(sum(1 for x in w if x) for w in naive_words(outer)
               if any(hdot(w, r) for r in rows))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([((2, 2), 6), ((3, 2), 4)]), st.data())
def test_hermitian_css_against_naive_relative_weights(spec, data):
    """css_hermitian over GF(4) (n <= 6) and GF(9) (n <= 4), with C1 =
    D^(perp h) for a random proper subcode D of C2 < GF(q^2)^n (a whole
    C2 is always pure, so none is drawn): its raw pair is the
    enumerated (wt(C2\\C1^(perp h)), wt(C1\\C2^(perp h))), and it is pure
    iff that pair is (d(C2), d(C1)), else degenerate."""
    (p, e), max_n = spec
    f = build_field(p, e)
    n = data.draw(st.integers(3, max_n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    c2 = LinearCode(f, rng.integers(0, f.order, (data.draw(
        st.integers(2, n - 1)), n)))
    assume(c2.k >= 2)
    coef = rng.integers(0, f.order, (data.draw(st.integers(1, c2.k - 1)),
                                     c2.k))
    d = LinearCode(f, gflinalg.matmul(coef, c2.matrix, f))
    assume(0 < d.k)
    c1 = d.hermitian_dual()
    rec = quantum.css_hermitian(c1, c2)
    wa = naive_weight_outside_hdual(c2, c1)
    wb = naive_weight_outside_hdual(c1, c2)
    raw = rec.provenance["raw_pair"]
    assert [(w["value"], w["exactness"]) for w in raw] == \
        [(wa, "exact"), (wb, "exact")]
    pure = (wa, wb) == (naive_distance(c2), naive_distance(c1))
    assert rec.purity == ("pure" if pure else "degenerate")


def test_enumeration_equals_naive_oracle():
    rng = np.random.default_rng(17)
    pool = []
    for spec in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3)):
        f = build_field(*spec)
        pool += [c for c in random_codes(f, rng, 15, max_n=8)
                 if f.order ** c.k <= 2 ** 12]
    pool.append(families.rs_code(8, 3))
    pool.append(families.bch_narrow_sense(build_field(2, 1), 7, 3))
    assert len(pool) >= 40
    for c in pool:
        assert min_distance(c).value == naive_distance(c)


# -- scalar-class walk versus the naive oracle --------------------------------

@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]),
       st.sampled_from([64, 200]), st.integers(0, 2 ** 32 - 1))
def test_scalar_class_walk_against_naive_oracle(spec, table_bytes, seed):
    """Value and witness, absolute and relative, with a low table small
    enough that the high walk spans several top-digit positions."""
    f = build_field(*spec)
    rng = np.random.default_rng(seed)
    kmax = max(3, int(np.log(600) / np.log(f.order)))
    k = int(rng.integers(3, kmax + 1))
    n = int(rng.integers(k + 1, 12))
    mat = rng.integers(0, f.order, (k, n)) * (rng.random((k, n)) < 0.5)
    assume(mat.any())
    c2 = LinearCode(f, mat)
    inner = None
    if c2.k >= 2:
        mix = rng.integers(0, f.order, (int(rng.integers(1, c2.k)), c2.k))
        sub = gflinalg.matmul(mix, c2.matrix, f)
        if sub.any() and LinearCode(f, sub).k < c2.k:
            inner = LinearCode(f, sub)
    with mock.patch.object(lincode, "_TABLE_BYTES", table_bytes):
        assert lincode._enumerate(c2, None) == naive_first_minimum(c2)
        if inner is not None:
            assert (lincode._enumerate(c2, inner)
                    == naive_first_minimum(c2, inner))


# -- the early stop at the design distance versus the naive oracle ------------

BCH_LENGTHS = {2: (7, 9, 15, 17, 21), 3: (8, 11, 13, 16), 4: (5, 7, 9, 15, 17)}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2)]),
       st.sampled_from([lincode._TABLE_BYTES, 64]), st.data())
def test_early_stop_against_naive_oracle(spec, table_bytes, data):
    """BCH codes and their punctures carry a design distance, so the walk
    stops at the first word of that weight.  Value and witness, absolute and
    relative to a BCH subcode with a larger defining set, must be those of
    the naive full walk.  A 64-byte table puts the stop in a later block."""
    f = build_field(*spec)
    q = f.order
    n = data.draw(st.sampled_from(BCH_LENGTHS[q]))
    start = data.draw(st.integers(0, n - 1))
    width = data.draw(st.integers(1, n - 2))
    extra = data.draw(st.integers(1, n - 1 - width))

    def bch(w):
        raw = [(start + i) % n for i in range(w)]
        return polyalg.defining_set_closure(raw, "cyclic", n, q)

    t2, t1 = bch(width), bch(width + extra)
    k2, k1 = n - len(t2.exponents), n - len(t1.exponents)
    assume(k2 > 0 and q ** k2 <= 2 ** 12)
    c2 = families.cyclic_code_from_defining_set(t2, f)
    c1 = families.cyclic_code_from_defining_set(t1, f) if 0 < k1 < k2 else None
    assert c2.design_distance == polyalg.bch_bound(t2)
    cases = [(c2, c1), (c2.puncture(), c1 and c1.puncture())]
    with mock.patch.object(lincode, "_TABLE_BYTES", table_bytes):
        for code, inner in cases:
            assert lincode._enumerate(code, None) == naive_first_minimum(code)
            if inner is not None:
                assert (lincode._enumerate(code, inner)
                        == naive_first_minimum(code, inner))


# -- Singleton and BCH bounds around the enumerated distance ------------------

@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 4]), st.data())
def test_distance_between_bch_and_singleton_bounds(q, data):
    """Random q-closed cyclic defining sets T over GF(2) and GF(4), n <= 21
    and q^k <= 2^12: the enumerated distance d, checked against the naive
    oracle, satisfies n - k + 1 >= d >= bch_bound(T), the design distance
    at which the walk stops.  T is the complement of a random union of
    cyclotomic cosets of at most log_q(2^12) exponents, the roots of the
    check polynomial.  n = 19 is left out: its roots of unity lie in
    GF(2^18), above the field size cap."""
    f = build_field(2, q.bit_length() - 1)
    n = data.draw(st.sampled_from([n for n in range(3, 22, 2) if n != 19]))
    cosets = sorted({polyalg.cyclotomic_coset(n, q, s) for s in range(n)})
    budget = data.draw(st.integers(1, 12 // f.e))
    free = set()
    for coset in data.draw(st.permutations(cosets)):
        if len(free) + len(coset) <= budget:
            free.update(coset)
    t = polyalg.defining_set_closure(set(range(n)) - free, "cyclic", n, q)
    k = n - len(t.exponents)
    assert 1 <= k == len(free) and q ** k <= 2 ** 12
    code = families.cyclic_code_from_defining_set(t, f)
    d = min_distance(code)
    assert d.exact and (d.value, d.witness) == naive_first_minimum(code)
    assert n - k + 1 >= d.value >= polyalg.bch_bound(t) == code.design_distance


# -- witness search versus enumeration ---------------------------------------

def check_search(code, inner):
    """Force the search (cap=1) and hold it to the enumerated weight."""
    true_w, _ = lincode._enumerate(code, inner)
    # a correct declared distance must never make a result exact
    fresh = LinearCode(code.field, code.matrix, declared_distance=true_w)
    res = (min_distance(fresh, cap=1) if inner is None
           else relative_min_weight(code, inner, cap=1))
    assert res.method != "enumeration"
    weight_one = [r for r in code.matrix if np.count_nonzero(r) == 1
                  and (inner is None or not inner.contains_word(r))]
    certified = 1 if weight_one else 2
    if res.exact:
        assert res.value == true_w == certified
        word = np.asarray(res.witness)
        assert code.contains_word(word)
        assert np.count_nonzero(word) == res.value
        assert inner is None or not inner.contains_word(word)
    else:
        assert res.value <= true_w <= res.upper
    w, word = lincode._witness_search(code, inner, target=0)
    assert code.contains_word(word) and np.count_nonzero(word) == w >= true_w
    assert inner is None or not inner.contains_word(word)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]),
       st.integers(0, 2 ** 32 - 1))
def test_witness_search_against_enumeration(spec, seed):
    """Absolute and relative weights of random codes with q^k <= 2^12."""
    f = build_field(*spec)
    rng = np.random.default_rng(seed)
    kmax = int(np.floor(12 / np.log2(f.order)))
    k = int(rng.integers(1, kmax + 1))
    n = int(rng.integers(k + 1, 15))
    density = rng.choice([0.3, 0.8])
    mat = rng.integers(0, f.order, (k, n)) * (rng.random((k, n)) < density)
    assume(mat.any())
    c2 = LinearCode(f, mat)
    check_search(c2, None)
    if c2.k >= 2:
        mix = rng.integers(0, f.order, (int(rng.integers(1, c2.k)), c2.k))
        sub = gflinalg.matmul(mix, c2.matrix, f)
        if sub.any() and LinearCode(f, sub).k < c2.k:
            check_search(c2, LinearCode(f, sub))


# -- vectorized elimination versus per-row references -------------------------

def rref_per_row(mat, field):
    """The per-row elimination that the vectorized rref replaced."""
    a = np.array(mat, dtype=np.int64)
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
                a[i] = field.vadd(
                    a[i], field.vmul(field.neg(int(a[i, c])), a[r]))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def test_binary_rref_is_xor_elimination(monkeypatch):
    """Over GF(2) the rref clears each column by XOR alone: with the field's
    vmul, vadd and vneg made to raise, it still equals the per-row oracle
    on square, tall, wide and rank-deficient 0/1 matrices up to 60 x 130."""
    f = build_field(2, 1)
    rng = np.random.default_rng(22)
    cases = []
    for rows, cols in [(1, 1), (1, 9), (9, 1), (8, 8), (60, 60), (60, 13),
                       (13, 60), (60, 130), (130, 60)]:
        for rank in sorted({0, 1, min(rows, cols) // 2, min(rows, cols)}):
            mat = (rng.integers(0, 2, (rows, rank))
                   @ rng.integers(0, 2, (rank, cols))) % 2
            cases.append((mat, rref_per_row(mat, f)))

    def refuse(*args):
        raise AssertionError("field arithmetic in a GF(2) rref")
    for op in ("vmul", "vadd", "vneg"):
        monkeypatch.setattr(f, op, refuse)
    deficient = 0
    for mat, (want_r, want_pivots) in cases:
        r, pivots = gflinalg.rref(mat, f)
        assert r.dtype == want_r.dtype and np.array_equal(r, want_r)
        assert pivots == want_pivots
        deficient += len(pivots) < min(mat.shape)
    assert deficient >= 10


def matmul_scalar(a, b, field):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for i, j, t in itertools.product(*map(range, (*out.shape, a.shape[1]))):
        out[i, j] = field.add(int(out[i, j]),
                              field.mul(int(a[i, t]), int(b[t, j])))
    return out


@pytest.mark.parametrize("spec", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2),
                                  (257, 1), (2, 9), (2, 16), (3, 6), (7, 3)])
def test_rref_and_containment_match_per_row_oracles(spec):
    """Square, tall, wide and rank-deficient matrices; batched containment
    against word-by-word membership, on subcodes and on random codes."""
    f = build_field(*spec)
    rng = np.random.default_rng(sum(spec) * 31 + spec[1])
    deficient = contained = refused = 0
    for trial in range(40):
        rows = int(rng.integers(1, 9))
        cols = int(rng.integers(1, 9)) * (1 + trial % 3)   # some wide
        mat = rng.integers(0, f.order, (rows, cols))
        if trial % 2:
            rank = int(rng.integers(1, min(rows, cols) + 1))
            left = rng.integers(0, f.order, (rows, rank))
            right = rng.integers(0, f.order, (rank, cols))
            assert np.array_equal(gflinalg.matmul(left, right, f),
                                  matmul_scalar(left, right, f))
            mat = gflinalg.matmul(left, right, f)
        r, pivots = gflinalg.rref(mat, f)
        want_r, want_pivots = rref_per_row(mat, f)
        assert np.array_equal(r, want_r) and pivots == want_pivots
        deficient += len(pivots) < rows
        if not mat.any():
            continue
        outer = LinearCode(f, mat)
        mix = rng.integers(0, f.order, (int(rng.integers(1, 4)), outer.k))
        for inner_rows in (gflinalg.matmul(mix, outer.matrix, f),
                           rng.integers(0, f.order, (2, cols))):
            if not inner_rows.any():
                continue
            inner = LinearCode(f, inner_rows)
            got = outer.contains_code(inner)
            assert got == all(outer.contains_word(w) for w in inner.matrix)
            contained += got
            refused += not got
    assert deficient >= 10 and contained >= 10 and refused >= 5


# The loop versions of gflinalg.reduce_vector and gflinalg.matmul, from
# before each became one product, with their _add_outer, copied verbatim
# (less the Field annotations) as oracles.

def _add_outer(acc, coef, row, field):
    """acc + coef[:, None] * row, through the field's vmul and vadd: one
    table lookup each for q <= galois.TABLE_MAX, log/antilog and base-p
    digits above it; no np.unique."""
    return field.vadd(acc, field.vmul(coef[:, None], row))


def reduce_vector(r, pivots, v, field):
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


def matmul(a, b, field):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[1] != b.shape[0]:
        raise CodeError("matmul shape mismatch")
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for k in range(a.shape[1]):
        out = _add_outer(out, a[:, k], b[k], field)
    return out


PRODUCT_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (7, 2), (257, 1), (2, 9),
                  (2, 16), (65521, 1), (3, 6), (7, 3)]


@pytest.mark.parametrize("spec", PRODUCT_FIELDS)
def test_products_match_frozen_loop_oracles(spec):
    """matmul and reduce_vector against the loops they replaced: empty,
    thin and square shapes, one vector and a matrix of them, words inside
    and outside the row space."""
    f = build_field(*spec)
    rng = np.random.default_rng(spec[0] * 37 + spec[1])
    for rows, inner, cols in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (1, 1, 1),
                              (1, 9, 1), (5, 7, 3), (12, 12, 12)]:
        a = rng.integers(0, f.order, (rows, inner))
        b = rng.integers(0, f.order, (inner, cols))
        got = gflinalg.matmul(a, b, f)
        assert got.dtype == np.int64 and np.array_equal(got, matmul(a, b, f))
    for k, n in [(1, 5), (3, 9), (6, 9), (9, 9)]:
        r, pivots = gflinalg.rref(rng.integers(0, f.order, (k, n)), f)
        inside = matmul(rng.integers(0, f.order, (4, len(r))), r, f)
        for v in (rng.integers(0, f.order, n), rng.integers(0, f.order, (4, n)),
                  inside, inside[0]):
            got = gflinalg.reduce_vector(r, pivots, v, f)
            assert got.shape == v.shape
            assert np.array_equal(got, reduce_vector(r, pivots, v, f))
        assert gflinalg.in_rowspace(r, pivots, inside, f)


def test_prime_field_product_past_two_to_the_32():
    """Over GF(65521) with inner size 2048 the integer sums of a.b pass
    2^32 (and stay below 2^53): the product is still exact."""
    f = build_field(65521, 1)
    rng = np.random.default_rng(65521)
    a = rng.integers(f.order - 100, f.order, (3, 2048))
    b = rng.integers(f.order - 100, f.order, (2048, 4))
    exact = a.astype(object) @ b.astype(object)
    assert exact.min() > 2 ** 32
    got = gflinalg.matmul(a, b, f)
    assert np.array_equal(got, (exact % f.p).astype(np.int64))
    assert np.array_equal(got, matmul(a, b, f))


def test_product_past_exact_float_sums_raises():
    """An inner size whose float64 sums could pass 2^53 is refused from the
    shape alone (the arrays here are empty)."""
    f = build_field(65521, 1)
    with pytest.raises(CodeError, match="inner size 4194304"):
        gflinalg.matmul(np.zeros((0, 1 << 22)), np.zeros((1 << 22, 0)), f)
    assert gflinalg.matmul(np.zeros((0, 1 << 21)), np.zeros((1 << 21, 0)),
                           f).shape == (0, 0)


# -- every exact bound's witness is a checked codeword ------------------------

def assert_witnessed(bound, code, inner=None):
    """An exact bound's witness is a codeword of the bound's weight, outside
    `inner` for a relative weight."""
    if bound.exact and bound.witness is not None:
        word = np.asarray(bound.witness)
        assert code.contains_word(word)
        assert np.count_nonzero(word) == bound.value
        assert inner is None or not inner.contains_word(word)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(["rs", "negacyclic", "bch", "random"]), st.data())
def test_exact_bounds_carry_checked_witnesses(source, data):
    """Witnesses of rs_code and negacyclic_cs (mds_rank), and of
    min_distance and relative_min_weight by enumeration and, at cap 1, by
    the witness search."""
    inner = None
    if source == "rs":
        q = data.draw(st.sampled_from([3, 4, 5, 7, 8, 9]))
        code = families.rs_code(q, data.draw(st.integers(1, q - 1)))
    elif source == "negacyclic":
        q, n = data.draw(st.sampled_from([(5, 4), (9, 4), (13, 4), (13, 6)]))
        code = families.negacyclic_cs(q, n, data.draw(
            st.sampled_from(range(2, n + 1, 2))))
    elif source == "bch":
        f = build_field(*data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2)])))
        n = data.draw(st.sampled_from(BCH_LENGTHS[f.order]))
        width = data.draw(st.integers(1, n - 2))

        def bch(w):
            return polyalg.defining_set_closure(range(1, w + 1), "cyclic",
                                                n, f.order)

        t2, t1 = bch(width), bch(width + 1)
        assume(len(t2.exponents) < n and f.order ** (n - len(t2.exponents))
               <= 2 ** 12)
        code = families.cyclic_code_from_defining_set(t2, f)
        if len(t2.exponents) < len(t1.exponents) < n:
            inner = families.cyclic_code_from_defining_set(t1, f)
    else:
        f = build_field(*data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2)])))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        codes = random_codes(f, rng, 1, max_n=10)
        code = codes[0]
        if code.k >= 2:
            sub = gflinalg.matmul(rng.integers(0, f.order, (1, code.k)),
                                  code.matrix, f)
            if sub.any():
                inner = LinearCode(f, sub)
    if code.distance_info is not None:
        assert code.distance_info.exact and code.distance_info.witness
        assert_witnessed(code.distance_info, code)
    for cap in (lincode.DEFAULT_CAP, 1):
        fresh = LinearCode(code.field, code.matrix,
                           design_distance=code.design_distance)
        assert_witnessed(min_distance(fresh, cap), fresh)
        if inner is not None:
            assert_witnessed(relative_min_weight(fresh, inner, cap), fresh,
                             inner)
    assert_witnessed(min_distance(code), code)
