"""Constructors for the classical code families feeding the quantum pipelines.

Every constructor returns a LinearCode with provenance and the certified
parameter knowledge it can prove at construction time (design distances from
the BCH bound, declared distances from the underlying theorems).
"""

from __future__ import annotations

from math import gcd

import numpy as np

from . import galois, lincode, polyalg
from .errors import CodeError, FieldError, PreconditionError
from .galois import Field, field_from_q
from .lincode import LinearCode
from .polyalg import DefiningSet, bch_bound, defining_set_closure


def cyclic_code_from_defining_set(t: DefiningSet, field: Field,
                                  provenance: str = "") -> LinearCode:
    """Cyclic or negacyclic code with rows x^j.g, j < k = n - |T|, for the
    generator g of the defining set.  The (nega)cyclic shift of the last
    row, x^k.g - g_deg.(x^n -+ 1), is a codeword (a multiple of g of degree
    below n) exactly when g divides x^n -+ 1."""
    g = polyalg.generator_from_defining_set(t, field)
    deg = len(g) - 1
    k = t.n - deg
    if k < 1:
        raise CodeError("defining set leaves a zero-dimensional code")
    rows = np.zeros((k, t.n), dtype=np.int64)
    for j in range(k):
        rows[j, j:j + deg + 1] = g
    code = LinearCode(field, rows, provenance=provenance or f"{t.kind}(T={t.sorted_exponents})",
                      design_distance=bch_bound(t))
    if code.k != k:
        raise CodeError("cyclic generator matrix lost rank")
    shift = np.roll(rows[-1], 1)
    if t.kind == "negacyclic":
        shift[0] = field.neg(int(shift[0]))
    if not code.contains_word(shift):
        raise CodeError("generator polynomial does not divide x^n -+ 1")
    code.defining_set = t
    return code


def rs_code(q: int, k: int) -> LinearCode:
    """Reed-Solomon [q-1, k, q-k]_q: degree-<k polynomials evaluated at the
    powers of the fixed primitive element."""
    field = field_from_q(q)
    if not 1 <= k <= q - 1:
        raise PreconditionError(f"RS dimension k={k} out of range 1..{q - 1}")
    pts = [field.pow(field.generator, i) for i in range(q - 1)]
    rows = np.array([[field.pow(x, j) for x in pts] for j in range(k)],
                    dtype=np.int64)
    code = LinearCode(field, rows, provenance=f"rs[{q - 1},{k}]_{q}",
                      design_distance=q - k)
    code.distance_info = lincode.Bound(q - k, "exact", "mds_rank",
                                       witness=lincode.mds_witness(code))
    return code


def bch_narrow_sense(field: Field, n: int, delta: int) -> LinearCode:
    """Narrow-sense BCH code: defining set = q-closure of {1, ..., delta-1}."""
    if gcd(n, field.order) != 1:
        raise PreconditionError(f"gcd(n={n}, q={field.order}) != 1")
    if not 2 <= delta <= n:
        raise PreconditionError(f"designed distance {delta} out of range 2..{n}")
    t = defining_set_closure(range(1, delta), "cyclic", n, field.order)
    code = cyclic_code_from_defining_set(
        t, field, provenance=f"bch[{n},delta={delta}]_{field.order}")
    if not code.contains_allones():
        raise CodeError("narrow-sense BCH code lost the all-one codeword")
    return code


def bch_dimension(n: int, q: int, delta: int) -> int:
    """Dimension of the narrow-sense BCH code by cyclotomic coset counting
    (no field arithmetic; usable beyond matrix scale)."""
    t = defining_set_closure(range(1, delta), "cyclic", n, q)
    return n - len(t.exponents)


def simplex_and_c0(m: int) -> tuple[LinearCode, LinearCode]:
    """The binary simplex code S_m = [2^m-1, m, 2^(m-1)] and its cyclic
    supercode C_0 = [2^m-1, m+1, 2^(m-1)-1] containing the all-one word.
    Their splitting field GF(2^m) is built first, so an m beyond the size
    cap raises FieldError before any set of 2^m - 1 exponents exists."""
    if m < 2:
        raise PreconditionError("simplex construction needs m >= 2")
    galois.build_field(2, m)
    field = field_from_q(2)
    n = 2 ** m - 1
    cl_minus1 = set(polyalg.cyclotomic_coset(n, 2, n - 1))
    t_simplex = DefiningSet("cyclic", n, 2, frozenset(set(range(n)) - cl_minus1))
    t_c0 = DefiningSet("cyclic", n, 2,
                       frozenset(set(range(n)) - cl_minus1 - {0}))
    simplex = cyclic_code_from_defining_set(t_simplex, field,
                                            provenance=f"simplex(m={m})")
    c0 = cyclic_code_from_defining_set(t_c0, field, provenance=f"c0(m={m})")
    if not c0.contains_code(simplex):
        raise CodeError("simplex code is not inside C_0")
    if not c0.contains_allones():
        raise CodeError("C_0 lost the all-one codeword")
    return simplex, c0


def preparata_like_bi(m: int, i: int) -> LinearCode:
    """Binary cyclic code with defining set Cl(1) u Cl(2^i+1): parameters
    [2^m-1, 2^m-2m-1] with declared distance 5."""
    violations = []
    if m % 2 == 0:
        violations.append(f"m={m} must be odd")
    if gcd(i, m) != 1:
        violations.append(f"gcd(i={i}, m={m}) != 1")
    if 2 ** i + 1 > 2 ** ((m + 1) // 2) - 1:
        violations.append(f"2^{i}+1 exceeds 2^ceil(m/2)-1")
    if violations:
        raise PreconditionError(violations)
    field = field_from_q(2)
    n = 2 ** m - 1
    exps = set(polyalg.cyclotomic_coset(n, 2, 1)) | \
        set(polyalg.cyclotomic_coset(n, 2, (2 ** i + 1) % n))
    t = DefiningSet("cyclic", n, 2, frozenset(exps))
    code = cyclic_code_from_defining_set(t, field,
                                         provenance=f"preparata_bi(m={m},i={i})")
    code.declared_distance = 5
    expected_k = 2 ** m - 2 * m - 1
    if code.k != expected_k:
        raise CodeError(f"dimension {code.k} != expected {expected_k}")
    return code


def negacyclic_cs(q: int, n: int, s: int) -> LinearCode:
    """MDS negacyclic code C_s over GF(q^2) whose defining set is the s/2
    consecutive odd integers a, a+2, ..., a+s-2, with a = 1 if (q-1)/n is
    even and a = n/2 + 1 if it is odd; Hermitian-dual-containing by
    construction."""
    violations = []
    p, e = None, None
    try:
        from .galois import prime_power
        p, e = prime_power(q)
    except FieldError as exc:
        violations.append(f"q={q}: {exc}")
    if p is not None and q % 2 == 0:
        violations.append(f"q={q} must be odd")
    if q % 4 != 1:
        violations.append(f"q={q} is not 1 mod 4")
    if n <= 0 or n % 2 != 0 or (q - 1) % n != 0:
        violations.append(f"n={n} is not an even divisor of q-1={q - 1}")
    if s % 2 != 0 or not 2 <= s <= n:
        violations.append(f"s={s} must be even with 2 <= s <= n")
    if violations:
        raise PreconditionError(violations)
    field = field_from_q(q * q)
    # C_s^(perp h) <= C_s iff T and -qT are disjoint mod 2n.  With
    # q = 1 + r*n and i odd, -q*i = -i if r is even and n - i if r is odd;
    # a run from 1 misses -T, a run from n/2 + 1 misses n - T, for every
    # s <= n.  (The run from 1 meets n - T once s > n/2.)
    start = 1 if (q - 1) // n % 2 == 0 else n // 2 + 1
    t = defining_set_closure(range(start, start + s - 1, 2), "negacyclic",
                             n, q * q)
    code = cyclic_code_from_defining_set(
        t, field, provenance=f"negacyclic_cs(q={q},n={n},s={s})")
    if code.k != n - s // 2:
        raise CodeError(f"dimension {code.k} != expected {n - s // 2}")
    # MDS certificate: the BCH bound of T meets the Singleton bound
    if bch_bound(t) != code.n - code.k + 1:
        raise CodeError("negacyclic C_s is not MDS")
    code.distance_info = lincode.Bound(s // 2 + 1, "exact", "mds_rank",
                                       witness=lincode.mds_witness(code))
    hd = code.hermitian_dual()
    # cross-check the defining-set route against the matrix-level dual
    t_dual = polyalg.hermitian_dual_defining_set(t, q)
    hd_from_t = cyclic_code_from_defining_set(t_dual, field)
    if hd_from_t != hd:
        raise CodeError("defining-set Hermitian dual disagrees with matrices")
    code.hermitian_containing = code.contains_code(hd)
    return code

