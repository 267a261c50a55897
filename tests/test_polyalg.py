import pytest

from qct import families, polyalg
from qct.errors import CodeError, PreconditionError
from qct.galois import build_field, field_from_q
from qct.polyalg import (DefiningSet, bch_bound, cyclotomic_coset,
                         defining_set_closure, generator_from_defining_set,
                         hermitian_dual_defining_set, odd_residues,
                         splitting_field, unity_root)


# -- scalar oracles: the per-coset product and long division -----------------

def _poly_mul(a, b, field):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return out


def oracle_generator(t, field):
    """prod over the q-cyclotomic cosets C of T of prod over C of
    (x - alpha^j), one scalar Field.mul per coefficient pair."""
    mod = t.n if t.kind == "cyclic" else 2 * t.n
    ext, emb = splitting_field(field, mod)
    alpha = unity_root(ext, mod)
    remaining = set(t.exponents)
    g = [1]
    while remaining:
        coset = cyclotomic_coset(mod, field.order, min(remaining))
        remaining -= set(coset)
        factor = [1]
        for j in coset:
            factor = _poly_mul(factor, [ext.neg(ext.pow(alpha, j)), 1], ext)
        g = _poly_mul(g, factor, ext)
    return [emb.down(c) for c in g]


def remainder(a, b, field):
    """a mod b for a monic b, by scalar long division."""
    rem = list(a)
    db = len(b) - 1
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        for j in range(db + 1):
            rem[i - db + j] = field.sub(rem[i - db + j], field.mul(c, b[j]))
    return rem[:db]


def xn_plus(n, sign, field):
    """x^n - 1 for sign = -1, x^n + 1 for sign = +1."""
    return [1 if sign > 0 else field.neg(1)] + [0] * (n - 1) + [1]


def test_cyclotomic_cosets_gf2_n15():
    assert cyclotomic_coset(15, 2, 1) == (1, 2, 4, 8)
    assert cyclotomic_coset(15, 2, 5) == (5, 10)
    assert cyclotomic_coset(15, 2, 7) == (7, 11, 13, 14)


def test_defining_set_closure_validation():
    t = defining_set_closure([1, 2], "cyclic", 15, 2)
    assert set(t.exponents) == {1, 2, 4, 8}
    with pytest.raises(CodeError):
        DefiningSet("cyclic", 15, 2, frozenset({1}))   # not closed
    with pytest.raises(CodeError):
        DefiningSet("negacyclic", 8, 81, frozenset({2}))  # even exponent


@pytest.mark.parametrize("raw,kind,n,q,message", [
    ([], "cyclic", 15, 3, "gcd(15,3) != 1"),
    ([2, 40], "negacyclic", 8, 4, "gcd(16,4) != 1"),
    ([1, 15], "cyclic", 15, 2, "exponent 15 out of range mod 15"),
    ([-1], "cyclic", 15, 2, "exponent -1 out of range mod 15"),
    ([18], "negacyclic", 8, 81, "exponent 18 out of range mod 16"),
    ([1, 17, 4], "negacyclic", 8, 81, "exponent 17 out of range mod 16"),
    ([1, 3, 4, 17], "negacyclic", 8, 81, "negacyclic exponent 4 is even"),
])
def test_defining_set_closure_errors(raw, kind, n, q, message):
    """The gcd is checked first, then each raw exponent in turn: its
    range, then, for a negacyclic set, its parity."""
    with pytest.raises(PreconditionError) as err:
        defining_set_closure(raw, kind, n, q)
    assert str(err.value) == message


def test_odd_residues():
    assert odd_residues(4) == frozenset({1, 3, 5, 7})


def test_bch_bound_cyclic_wraparound():
    # {14, 0, 1} wraps around n=15 -> run of 3 -> bound 4
    t = DefiningSet("cyclic", 15, 2, frozenset(
        set(cyclotomic_coset(15, 2, 1))
        | set(cyclotomic_coset(15, 2, 7)) | {0}))
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


def test_splitting_field_of_root_order_one_is_the_field():
    """Mod 1 the only residue is 0, and its orbit has size 1: the field
    already holds the order-1 root of unity."""
    f4 = build_field(2, 2)
    ext, _ = splitting_field(f4, 1)
    assert ext == f4
    assert generator_from_defining_set(
        DefiningSet("cyclic", 1, 4, frozenset()), f4) == [1]


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
    assert mp == oracle_generator(t, f2)
    assert len(mp) == 4 and mp[-1] == 1
    assert not any(remainder(xn_plus(7, -1, f2), mp, f2))


def test_generator_divides_xn_minus_one():
    f4 = field_from_q(4)
    t = defining_set_closure(range(1, 5), "cyclic", 15, 4)
    g = generator_from_defining_set(t, f4)
    assert g == oracle_generator(t, f4)
    assert len(g) - 1 == len(t.exponents)
    assert not any(remainder(xn_plus(15, -1, f4), g, f4))


def test_negacyclic_generator_divides_xn_plus_one():
    f81 = field_from_q(81)
    t = defining_set_closure([1, 3], "negacyclic", 8, 81)
    g = generator_from_defining_set(t, f81)
    assert g == oracle_generator(t, f81)
    assert not any(remainder(xn_plus(8, 1, f81), g, f81))
    assert any(remainder(xn_plus(8, -1, f81), g, f81))


# -- the linear-factor product versus the per-coset oracle --------------------

CYCLIC_LENGTHS = [(2, n) for n in (7, 15, 21, 31, 63)] + \
    [(3, n) for n in (8, 13, 26)] + \
    [(4, n) for n in (15, 21, 35, 45, 63, 65)]


def _cyclic_sets(n, q):
    """Every single coset, narrow-sense BCH sets, and the set of all
    nonzero exponents."""
    reps = sorted({min(cyclotomic_coset(n, q, s)) for s in range(n)})
    sets = [defining_set_closure([s], "cyclic", n, q) for s in reps]
    sets += [defining_set_closure(range(1, d), "cyclic", n, q)
             for d in (3, 5, 7) if d < n]
    sets.append(DefiningSet("cyclic", n, q, frozenset(range(1, n))))
    return sets


@pytest.mark.parametrize("q,n", CYCLIC_LENGTHS)
def test_cyclic_generators_match_coset_oracle(q, n):
    f = field_from_q(q)
    for t in _cyclic_sets(n, q):
        g = generator_from_defining_set(t, f)
        assert g == oracle_generator(t, f), t.sorted_exponents
        assert len(g) - 1 == len(t.exponents)
        assert not any(remainder(xn_plus(n, -1, f), g, f))
    # all nonzero exponents: (x^n - 1) / (x - 1) = 1 + x + ... + x^(n-1)
    assert g == [1] * n


def _negacyclic_cs_set(q, n, s):
    """The defining set of families.negacyclic_cs(q, n, s)."""
    start = 1 if (q - 1) // n % 2 == 0 else n // 2 + 1
    return defining_set_closure(range(start, start + s - 1, 2), "negacyclic",
                                n, q * q)


@pytest.mark.parametrize("q,n", [(5, 4), (9, 4), (9, 8), (13, 4), (13, 6),
                                 (17, 16)])
def test_negacyclic_cs_generators_match_coset_oracle(q, n):
    f = field_from_q(q * q)
    for s in range(2, n + 1, 2):
        t = _negacyclic_cs_set(q, n, s)
        g = generator_from_defining_set(t, f)
        assert g == oracle_generator(t, f)
        assert not any(remainder(xn_plus(n, 1, f), g, f))
        t_dual = hermitian_dual_defining_set(t, q)
        assert (generator_from_defining_set(t_dual, f)
                == oracle_generator(t_dual, f))


# -- the (nega)cyclic shift check of cyclic_code_from_defining_set ------------

@pytest.mark.parametrize("kind,n,q,exps,g", [
    ("cyclic", 7, 2, {0}, [1, 0, 1]),     # (x + 1)^2 does not divide x^7 - 1
    ("negacyclic", 8, 81, {1}, [1, 1]),   # x + 1 does not divide x^8 + 1
])
def test_shift_check_rejects_a_non_divisor(monkeypatch, kind, n, q, exps, g):
    monkeypatch.setattr(polyalg, "generator_from_defining_set",
                        lambda t, field: g)
    t = DefiningSet(kind, n, q, frozenset(exps))
    with pytest.raises(CodeError, match="does not divide x\\^n"):
        families.cyclic_code_from_defining_set(t, field_from_q(q))


def test_shift_check_accepts_a_divisor(monkeypatch):
    monkeypatch.setattr(polyalg, "generator_from_defining_set",
                        lambda t, field: [1, 1, 0, 1])   # x^3 + x + 1
    t = DefiningSet("cyclic", 7, 2, frozenset({1, 2, 4}))
    code = families.cyclic_code_from_defining_set(t, field_from_q(2))
    assert (code.n, code.k) == (7, 4)
