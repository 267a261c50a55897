import numpy as np
import pytest

from qct import galois, gflinalg
from qct.errors import FieldError, SearchCapExceeded
from qct.galois import (SIZE_CAP, ExtensionBasis, Field, build_field,
                        field_from_json, field_from_q, find_dual_basis,
                        find_self_dual_basis, get_embedding, is_prime,
                        prime_power, self_dual_basis_exists, standard_basis)


def test_prime_power_decomposition():
    assert prime_power(81) == (3, 4)
    assert prime_power(2) == (2, 1)
    with pytest.raises(FieldError):
        prime_power(12)


def test_gf4_canonical_tables():
    f4 = build_field(2, 2)
    assert f4.modulus == (1, 1, 1)
    assert f4.generator == 2
    # w * w = w + 1 = 3, w * w^2 = 1
    assert f4.mul(2, 2) == 3
    assert f4.mul(2, 3) == 1
    assert f4.add(2, 3) == 1
    assert f4.inv(2) == 3


def test_scalar_arithmetic_against_polynomials():
    f9 = build_field(3, 2)
    for a in range(9):
        assert f9.add(a, f9.neg(a)) == 0
        if a:
            assert f9.mul(a, f9.inv(a)) == 1
    # distributivity spot checks
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b, c = rng.integers(0, 9, 3)
        lhs = f9.mul(int(a), f9.add(int(b), int(c)))
        rhs = f9.add(f9.mul(int(a), int(b)), f9.mul(int(a), int(c)))
        assert lhs == rhs


def test_vectorized_matches_scalar():
    for (p, e) in ((2, 3), (3, 2), (5, 1)):
        f = build_field(p, e)
        q = f.order
        a = np.arange(q, dtype=np.int64).repeat(q)
        b = np.tile(np.arange(q, dtype=np.int64), q)
        vm = f.vmul(a, b)
        va = f.vadd(a, b)
        for i in range(q * q):
            assert vm[i] == f.mul(int(a[i]), int(b[i]))
            assert va[i] == f.add(int(a[i]), int(b[i]))


def log_product(f, a, b):
    """Oracle: the log/antilog product, as Field.vmul computes it above
    TABLE_MAX."""
    nz = (a != 0) & (b != 0)
    la = f.log[np.where(a != 0, a, 1)]
    lb = f.log[np.where(b != 0, b, 1)]
    return np.where(nz, f.exp[(la + lb) % (f.order - 1)], 0)


def digit_sum(f, a, b):
    """Oracle: the base-p digitwise sum."""
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
    for t in range(f.e):
        pk = f.p ** t
        out += (((a // pk) % f.p + (b // pk) % f.p) % f.p) * pk
    return out


def digit_neg(f, a):
    """Oracle: the base-p digitwise negation."""
    out = np.zeros(a.shape, dtype=np.int64)
    for t in range(f.e):
        pk = f.p ** t
        out += ((f.p - (a // pk) % f.p) % f.p) * pk
    return out


TABLE_FIELDS = [build_field(p, e) for p in range(2, galois.TABLE_MAX + 1)
                if is_prime(p) for e in range(1, 9)
                if p ** e <= galois.TABLE_MAX]
OTHER_MODULUS = [field_from_json({"p": 3, "e": 3, "modulus": [2, 2, 0, 1],
                                  "generator": 6}),
                 field_from_json({"p": 2, "e": 8,
                                  "modulus": [1, 0, 1, 1, 1, 0, 0, 0, 1],
                                  "generator": 2})]


@pytest.mark.parametrize("f", TABLE_FIELDS + OTHER_MODULUS,
                         ids=lambda f: f"{f}-{''.join(map(str, f.modulus))}")
def test_lookup_tables_match_log_and_digit_oracles(f):
    """vmul, vadd and vneg on all q^2 pairs of every field with
    q <= TABLE_MAX, against the arithmetic the tables replace."""
    assert f.order <= galois.TABLE_MAX
    x = np.arange(f.order, dtype=np.int64)
    a, b = x.repeat(f.order), np.tile(x, f.order)
    for got, want in ((f.vmul(a, b), log_product(f, a, b)),
                      (f.vmul(x[:, None], x), log_product(f, x[:, None], x)),
                      (f.vadd(a, b), digit_sum(f, a, b)),
                      (f.vadd(x[:, None], x), digit_sum(f, x[:, None], x)),
                      (f.vneg(x), digit_neg(f, x))):
        assert got.dtype == np.int64 and np.array_equal(got, want)


DIGIT_FIELDS = [build_field(3, 6), build_field(5, 4), build_field(7, 3)]


@pytest.mark.parametrize("f", DIGIT_FIELDS, ids=str)
def test_digit_arithmetic_above_table_max(f):
    """vadd, vneg and the scalar add and neg of odd fields with several
    digits above TABLE_MAX, where no table exists, on seeded random pairs
    against the digitwise oracles."""
    assert f.order > galois.TABLE_MAX and f._add_table is None
    rng = np.random.default_rng(f.order)
    a, b = rng.integers(0, f.order, (2, 500))
    assert np.array_equal(f.vadd(a, b), digit_sum(f, a, b))
    assert np.array_equal(f.vadd(a[:20, None], b[:30]),
                          digit_sum(f, a[:20, None], b[:30]))
    assert np.array_equal(f.vneg(a), digit_neg(f, a))
    assert [f.add(int(x), int(y)) for x, y in zip(a, b)] == \
        digit_sum(f, a, b).tolist()
    assert [f.neg(int(x)) for x in a] == digit_neg(f, a).tolist()


@pytest.mark.parametrize("f", TABLE_FIELDS + DIGIT_FIELDS, ids=str)
def test_digits_round_trip(f):
    x = np.arange(f.order, dtype=np.int64)
    d = f.digits(x)
    assert d.shape == (f.order, f.e) and d.min() >= 0 and d.max() < f.p
    assert np.array_equal(f.from_digits(d), x)


def test_other_modulus_fields_are_not_the_cached_ones():
    assert all(f.modulus != build_field(f.p, f.e).modulus
               for f in OTHER_MODULUS)


def test_field_json_roundtrip():
    f = build_field(2, 4)
    assert field_from_json(f.to_json()) is f   # the cached build_field
    # another modulus or generator is validated and built on its own
    other = field_from_json(dict(f.to_json(), modulus=[1, 0, 0, 1, 1]))
    assert other != f and other.order == 16
    with pytest.raises(FieldError):
        field_from_json(dict(f.to_json(), generator=1))


def scalar_chain_tables(field):
    """Oracle: the exp/log tables from one polynomial multiplication by the
    generator per element, without the vectorized multiply-by-g map."""
    q = field.order
    exp = np.zeros(q - 1, dtype=np.int64)
    log = np.full(q, -1, dtype=np.int64)
    x = 1
    for i in range(q - 1):
        exp[i] = x
        log[x] = i
        x = galois._mul_raw(x, field.generator, field.p, field.modulus)
    return exp, log


def test_tables_match_scalar_chain():
    small = [(p, e) for p in range(2, 512) if is_prime(p)
             for e in range(1, 10) if p ** e <= 512]
    for p, e in small + [(2, 12)]:
        f = build_field(p, e)
        exp, log = scalar_chain_tables(f)
        assert np.array_equal(f.exp, exp) and np.array_equal(f.log, log)


@pytest.mark.parametrize("p,e", [(2, 4), (3, 2), (5, 2)])
def test_every_generator_choice(p, e):
    """Each primitive element gives the oracle's tables; every other nonzero
    element is rejected as not primitive."""
    f = build_field(p, e)
    q = f.order
    for g in range(1, q):
        order = (q - 1) // np.gcd(int(f.log[g]), q - 1)
        if order == q - 1:
            other = Field(p, e, list(f.modulus), g)
            exp, log = scalar_chain_tables(other)
            assert np.array_equal(other.exp, exp)
            assert np.array_equal(other.log, log) and other.log[g] == 1
        else:
            with pytest.raises(FieldError, match="not primitive"):
                Field(p, e, list(f.modulus), g)


@pytest.mark.parametrize("key,value", [
    ("generator", 6), ("generator", 4), ("generator", 0), ("generator", -1),
    ("generator", 2.0), ("generator", "x"), ("generator", True),
    ("modulus", [1, 3, 1]), ("modulus", [-1, 1, 1]), ("modulus", [1.0, 1, 1]),
    ("modulus", [1, 1]), ("modulus", [1, 1, 2]), ("p", 2.0), ("e", "2"),
])
def test_bad_gf4_record_rejected(key, value):
    rec = dict(build_field(2, 2).to_json(), **{key: value})
    with pytest.raises(FieldError):
        field_from_json(rec)


@pytest.mark.parametrize("p,e", [
    (1000000000000000003, 1), (2, 400_000_000), (2, SIZE_CAP.bit_length() + 1),
    (SIZE_CAP + 1, 1), (257, 2), (2, 0), (2, -3), (1000000000000000003, 0),
])
def test_size_checked_before_arithmetic(no_big_factoring, p, e):
    for build in (lambda: build_field(p, e),
                  lambda: Field(p, e, [0, 1], 1),
                  lambda: field_from_json({"p": p, "e": e, "modulus": [0, 1],
                                           "generator": 1})):
        with pytest.raises(FieldError):
            build()


@pytest.mark.parametrize("q", [1000000000000000003, 2 ** 400, SIZE_CAP + 1])
def test_order_checked_before_factoring(no_big_factoring, q):
    with pytest.raises(FieldError, match="size cap"):
        prime_power(q)
    with pytest.raises(FieldError, match="size cap"):
        field_from_q(q)


def test_field_determinism_and_cache():
    assert build_field(3, 3) is build_field(3, 3)
    assert field_from_q(27) == build_field(3, 3)


def test_embedding_tower():
    f2, f16 = build_field(2, 1), build_field(2, 4)
    emb = get_embedding(f2, f16)
    assert emb.image[1] == 1 and emb.down(1) == 1
    # one embedding per pair of value-equal fields
    f16_copy = Field(2, 4, list(f16.modulus), f16.generator)
    assert f16_copy is not f16 and get_embedding(f2, f16_copy) is emb
    f4 = build_field(2, 2)
    emb2 = get_embedding(f4, f16)
    # embedding is a ring homomorphism
    for a in range(4):
        for b in range(4):
            assert emb2.image[f4.mul(a, b)] == \
                f16.mul(emb2.image[a], emb2.image[b])
            assert emb2.image[f4.add(a, b)] == \
                f16.add(emb2.image[a], emb2.image[b])


def test_trace_is_linear_and_surjective():
    f3, f27 = build_field(3, 1), build_field(3, 3)
    emb = get_embedding(f3, f27)
    values = {emb.traces[x] for x in range(27)}
    assert values == {0, 1, 2}
    for x in range(27):
        for y in range(27):
            assert emb.traces[f27.add(x, y)] == \
                f3.add(emb.traces[x], emb.traces[y])


def test_dual_basis_gf4_example():
    f2, f4 = build_field(2, 1), build_field(2, 2)
    emb = get_embedding(f2, f4)
    basis = ExtensionBasis(emb, (1, 2))   # {1, w}
    dual = find_dual_basis(basis)
    assert dual.elements == (3, 1)        # {w^2, 1}
    # defining property Tr(a_i b_j) = delta_ij
    for i, a in enumerate(basis.elements):
        for j, b in enumerate(dual.elements):
            assert emb.traces[f4.mul(a, b)] == (1 if i == j else 0)


def test_self_dual_basis_gf4():
    f2, f4 = build_field(2, 1), build_field(2, 2)
    found = find_self_dual_basis(f2, f4)
    assert found is not None
    assert found.elements == (2, 3)
    assert found.is_self_dual()


def test_self_dual_basis_nonexistence_gf9():
    f3, f9 = build_field(3, 1), build_field(3, 2)
    assert not self_dual_basis_exists(f3, 2)
    assert find_self_dual_basis(f3, f9) is None


def test_self_dual_basis_gf27():
    f3, f27 = build_field(3, 1), build_field(3, 3)
    assert self_dual_basis_exists(f3, 3)
    found = find_self_dual_basis(f3, f27)
    assert found is not None and found.is_self_dual()


def test_self_dual_basis_budget_raises(monkeypatch):
    """A node budget the depth-first search cannot finish in raises
    SearchCapExceeded: a basis of GF(16) over GF(2) takes at least 4 nodes."""
    monkeypatch.setattr(galois, "_BASIS_NODES", 3)
    with pytest.raises(SearchCapExceeded, match="budget exhausted"):
        find_self_dual_basis(build_field(2, 1), build_field(2, 4))


def test_conjugation_is_involution_on_gf9():
    f9 = build_field(3, 2)
    assert f9.is_square_order and f9.conj_base == 3
    for x in range(9):
        assert f9.conj(f9.conj(x)) == x


def test_standard_basis_valid():
    f4, f16 = build_field(2, 2), build_field(2, 4)
    basis = standard_basis(get_embedding(f4, f16))
    for b in (basis, find_dual_basis(basis)):
        assert len(b.elements) == 2
        assert gflinalg.rank(b.gram(), f4) == 2
