import tracemalloc

import pytest

from qct import families, lincode
from qct.errors import CodeError, FieldError, PreconditionError
from qct.galois import build_field, field_from_q
from qct.lincode import LinearCode, is_mds, min_distance
from qct.polyalg import defining_set_closure, hermitian_dual_defining_set

F2 = build_field(2, 1)
F4 = build_field(2, 2)


def test_rs_code_parameters():
    rs = families.rs_code(16, 9)
    assert rs.params() == (15, 9, 16)
    assert rs.distance_info.value == 7
    assert rs.distance_info.method == "mds_rank"
    assert is_mds(rs)
    with pytest.raises(PreconditionError):
        families.rs_code(16, 16)


def test_bch_narrow_sense_gf2():
    c = families.bch_narrow_sense(F2, 7, 3)
    assert c.params() == (7, 4, 2)
    assert min_distance(c).value == 3
    c = families.bch_narrow_sense(F4, 15, 11)
    assert c.params() == (15, 3, 4)
    assert min_distance(c).value == 11


def test_bch_contains_allones():
    for delta in (3, 5, 7):
        assert families.bch_narrow_sense(F4, 15, delta).contains_allones()


def test_bch_dimension_by_cosets_matches_matrices():
    for delta in (3, 5, 7, 11):
        k = families.bch_dimension(15, 2, delta)
        assert k == families.bch_narrow_sense(F2, 15, delta).k


def test_bch_dimension_formula_m10():
    n = 1023
    for delta in (3, 7, 11, 15, 31):
        assert families.bch_dimension(n, 2, delta) == n - 10 * (delta - 1) // 2


def test_simplex_and_c0():
    s, c0 = families.simplex_and_c0(3)
    assert s.params() == (7, 3, 2) and c0.params() == (7, 4, 2)
    assert min_distance(s).value == 4
    assert min_distance(c0).value == 3
    s4, c04 = families.simplex_and_c0(4)
    assert s4.params() == (15, 4, 2) and c04.params() == (15, 5, 2)
    assert min_distance(s4).value == 8
    assert min_distance(c04).value == 7


def test_simplex_beyond_the_size_cap_fails_before_allocating():
    """GF(2^17) is refused before a set of 2^17 - 1 exponents exists."""
    tracemalloc.start()
    try:
        with pytest.raises(FieldError, match="exceeds size cap"):
            families.simplex_and_c0(17)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_preparata_like_bi():
    c = families.preparata_like_bi(5, 2)
    assert c.params() == (31, 21, 2)
    assert c.declared_distance == 5
    with pytest.raises(PreconditionError) as err:
        families.preparata_like_bi(5, 5)
    assert "gcd" in str(err.value)
    with pytest.raises(PreconditionError):
        families.preparata_like_bi(4, 1)


def test_negacyclic_cs_suite():
    for s in (2, 4, 6):
        c = families.negacyclic_cs(9, 8, s)
        assert c.params() == (8, 8 - s // 2, 81)
        assert is_mds(c)
        assert c.distance_info.value == s // 2 + 1
        assert c.hermitian_containing
    # the run T = {1, 3, 5} would not do: (q-1)/n = 1 is odd, so -9T mod 16
    # = {7, 5, 3} meets T, and C_6 starts its run at n/2 + 1 = 5 instead
    t = defining_set_closure([1, 3, 5], "negacyclic", 8, 81)
    assert not t.exponents <= hermitian_dual_defining_set(t, 9).exponents
    assert families.negacyclic_cs(9, 8, 6).defining_set.exponents == {5, 7, 9}


@pytest.mark.parametrize("q,n", [(5, 4), (9, 4), (9, 8), (13, 4), (13, 6)])
def test_negacyclic_hermitian_containment(q, n):
    # matrix path and defining-set path, for every even s up to n
    for s in range(2, n + 1, 2):
        c = families.negacyclic_cs(q, n, s)
        td = hermitian_dual_defining_set(c.defining_set, q)
        assert c.hermitian_containing, (q, n, s)
        assert c.defining_set.exponents <= td.exponents, (q, n, s)
        # the MDS certificate (BCH bound = Singleton) agrees with a full
        # column-subset rank scan on a copy without the cached distance
        assert is_mds(LinearCode(c.field, c.matrix)), (q, n, s)


def test_negacyclic_cs_q5():
    c = families.negacyclic_cs(5, 4, 2)
    assert c.params() == (4, 3, 25)
    assert c.hermitian_containing


def test_negacyclic_cs_precondition_report():
    with pytest.raises(PreconditionError) as err:
        families.negacyclic_cs(7, 3, 3)
    msg = str(err.value)
    assert "1 mod 4" in msg and "even divisor" in msg and "s=3" in msg
    with pytest.raises(PreconditionError, match="exceeds size cap"):
        families.negacyclic_cs(1000000000000000003, 8, 4)


def test_cyclic_code_from_defining_set_design_distance():
    t = defining_set_closure(range(1, 5), "cyclic", 15, 2)
    c = families.cyclic_code_from_defining_set(t, F2)
    assert c.design_distance >= 5
    assert c.defining_set == t


def test_import_code_roundtrip():
    c = families.rs_code(4, 2)
    assert lincode.code_from_json(c.to_json()) == c
