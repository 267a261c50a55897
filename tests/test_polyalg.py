import pytest

from qct.errors import CodeError, PreconditionError
from qct.galois import build_field, field_from_q
from qct.polyalg import (DefiningSet, bch_bound, cyclotomic_coset,
                         defining_set_closure, defining_set_from_json,
                         generator_from_defining_set,
                         hermitian_dual_defining_set, odd_residues,
                         poly_divmod, poly_eval, poly_mul, poly_xn_plus,
                         splitting_field, unity_root)


def test_poly_mul_divmod_roundtrip():
    f5 = build_field(5, 1)
    a = [1, 2, 0, 3]
    b = [4, 1]
    prod = poly_mul(a, b, f5)
    quot, rem = poly_divmod(prod, b, f5)
    assert quot == a and rem == [0]


def test_poly_eval():
    f4 = build_field(2, 2)
    # x^2 + x + 1 vanishes at w and w^2
    poly = [1, 1, 1]
    assert poly_eval(poly, 2, f4) == 0
    assert poly_eval(poly, 3, f4) == 0
    assert poly_eval(poly, 1, f4) == 1


def test_cyclotomic_cosets_gf2_n15():
    c = cyclotomic_coset(15, 2, 1)
    assert c.members == (1, 2, 4, 8)
    assert cyclotomic_coset(15, 2, 5).members == (5, 10)
    assert cyclotomic_coset(15, 2, 7).members == (7, 11, 13, 14)


def test_defining_set_closure_validation():
    t = defining_set_closure([1, 2], "cyclic", 15, 2)
    assert set(t.exponents) == {1, 2, 4, 8}
    with pytest.raises(CodeError):
        DefiningSet("cyclic", 15, 2, frozenset({1}))   # not closed
    with pytest.raises(CodeError):
        DefiningSet("negacyclic", 8, 81, frozenset({2}))  # even exponent


def test_defining_set_json_roundtrip():
    t = defining_set_closure([1, 3], "negacyclic", 8, 81)
    assert defining_set_from_json(t.to_json()) == t


def test_odd_residues():
    assert odd_residues(4) == frozenset({1, 3, 5, 7})


def test_bch_bound_cyclic_wraparound():
    # {14, 0, 1} wraps around n=15 -> run of 3 -> bound 4
    t = DefiningSet("cyclic", 15, 2, frozenset(
        set(cyclotomic_coset(15, 2, 1).members)
        | set(cyclotomic_coset(15, 2, 7).members) | {0}))
    assert bch_bound(t) >= 4


def test_bch_bound_negacyclic_step2():
    t = defining_set_closure([1, 3], "negacyclic", 8, 81)
    assert bch_bound(t) == 3
    t = defining_set_closure([1, 3, 5], "negacyclic", 8, 81)
    assert bch_bound(t) == 4


def test_hermitian_dual_defining_set_example():
    t = defining_set_closure([1, 3], "negacyclic", 8, 81)
    td = hermitian_dual_defining_set(t, 9)
    assert set(td.exponents) == {1, 3, 9, 11, 13, 15}
    with pytest.raises(PreconditionError):
        hermitian_dual_defining_set(t, 3)


def test_splitting_field_and_unity_root():
    f2 = build_field(2, 1)
    ext, emb = splitting_field(f2, 15)
    assert ext.order == 16
    alpha = unity_root(ext, 15)
    assert ext.pow(alpha, 15) == 1
    assert all(ext.pow(alpha, j) != 1 for j in range(1, 15))


def test_minimal_polynomial_gf2():
    f2 = build_field(2, 1)
    t = DefiningSet("cyclic", 7, 2, frozenset({1, 2, 4}))
    mp = generator_from_defining_set(t, f2)
    # the coset {1, 2, 4} gives the degree-3 irreducible factor of x^7 - 1
    assert len(mp) == 4 and mp[-1] == 1
    x7 = poly_xn_plus(7, -1, f2)
    _, rem = poly_divmod(x7, mp, f2)
    assert rem == [0]


def test_generator_divides_xn_minus_one():
    f4 = field_from_q(4)
    t = defining_set_closure(range(1, 5), "cyclic", 15, 4)
    g = generator_from_defining_set(t, f4)
    assert len(g) - 1 == len(t.exponents)
    _, rem = poly_divmod(poly_xn_plus(15, -1, f4), g, f4)
    assert rem == [0]


def test_negacyclic_generator_divides_xn_plus_one():
    f81 = field_from_q(81)
    t = defining_set_closure([1, 3], "negacyclic", 8, 81)
    g = generator_from_defining_set(t, f81)
    _, rem = poly_divmod(poly_xn_plus(8, 1, f81), g, f81)
    assert rem == [0]
