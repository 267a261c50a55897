"""Polynomials over GF(q), cyclotomic cosets, defining sets and the BCH bound.

Polynomials are lists of field elements, constant term first.  Defining sets
follow the root-of-unity conventions: exponents mod n for cyclic codes and
odd exponents mod 2n for negacyclic codes, closed under multiplication by
the field order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import CodeError, FieldError, PreconditionError
from .galois import Embedding, Field, build_field, get_embedding

# -- polynomial arithmetic over a Field ---------------------------------------

def poly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return a


def poly_deg(a) -> int:
    a = poly_trim(list(a))
    return -1 if a == [0] else len(a) - 1


def poly_mul(a, b, field: Field):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = field.add(out[i + j], field.mul(ai, bj))
    return poly_trim(out)


def poly_divmod(a, b, field: Field):
    a = poly_trim(list(a))
    b = poly_trim(list(b))
    if b == [0]:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    inv_lead = field.inv(b[-1])
    quot = [0] * max(1, len(a) - db)
    rem = list(a)
    for i in range(len(rem) - 1, db - 1, -1):
        if rem[i]:
            c = field.mul(rem[i], inv_lead)
            quot[i - db] = c
            for j in range(db + 1):
                rem[i - db + j] = field.sub(rem[i - db + j], field.mul(c, b[j]))
    return poly_trim(quot), poly_trim(rem)


def poly_eval(a, x: int, field: Field) -> int:
    acc = 0
    for c in reversed(a):
        acc = field.add(field.mul(acc, x), c)
    return acc


def poly_xn_plus(n: int, sign: int, field: Field):
    """x^n - 1 for sign=-1, x^n + 1 for sign=+1."""
    out = [0] * (n + 1)
    out[0] = 1 if sign > 0 else field.neg(1)
    out[n] = 1
    return out


# -- cyclotomic cosets and defining sets --------------------------------------

@dataclass(frozen=True)
class CyclotomicCoset:
    n: int
    q: int
    representative: int
    members: tuple

    @property
    def size(self) -> int:
        return len(self.members)


def cyclotomic_coset(n: int, q: int, s: int) -> CyclotomicCoset:
    """Orbit of s under multiplication by q mod n."""
    if gcd(n, q) != 1:
        raise PreconditionError(f"gcd({n},{q}) != 1")
    if not 0 <= s < n:
        raise PreconditionError(f"exponent {s} out of range mod {n}")
    seen = set()
    x = s
    while x not in seen:
        seen.add(x)
        x = (x * q) % n
    members = tuple(sorted(seen))
    return CyclotomicCoset(n, q, min(members), members)


@dataclass(frozen=True)
class DefiningSet:
    """Root-exponent set of a cyclic (mod n) or negacyclic (odd, mod 2n) code."""

    kind: str           # "cyclic" | "negacyclic"
    n: int
    q: int              # order of the code's field; closure is under *q
    exponents: frozenset

    def __post_init__(self):
        if self.kind not in ("cyclic", "negacyclic"):
            raise CodeError(f"unknown defining-set kind {self.kind!r}")
        mod = self.n if self.kind == "cyclic" else 2 * self.n
        for i in self.exponents:
            if not 0 <= i < mod:
                raise CodeError(f"exponent {i} out of range mod {mod}")
            if self.kind == "negacyclic" and i % 2 == 0:
                raise CodeError(f"negacyclic exponent {i} is even")
        closed = {(i * self.q) % mod for i in self.exponents}
        if closed != set(self.exponents):
            raise CodeError("defining set is not closed under multiplication by q")

    @property
    def sorted_exponents(self):
        return sorted(self.exponents)

    def to_json(self) -> dict:
        return {"kind": self.kind, "n": self.n, "q": self.q,
                "exponents": self.sorted_exponents}


def defining_set_from_json(rec: dict) -> DefiningSet:
    return DefiningSet(rec["kind"], rec["n"], rec["q"],
                       frozenset(rec["exponents"]))


def odd_residues(n: int):
    """O_n: the odd integers in [1, 2n-1]."""
    return frozenset(range(1, 2 * n, 2))


def defining_set_closure(raw, kind: str, n: int, q: int) -> DefiningSet:
    """Smallest q-closed defining set containing the raw exponents."""
    mod = n if kind == "cyclic" else 2 * n
    if gcd(mod, q) != 1:
        raise PreconditionError(f"gcd({mod},{q}) != 1")
    closed = set()
    for s in raw:
        if not 0 <= s < mod:
            raise PreconditionError(f"exponent {s} out of range mod {mod}")
        if kind == "negacyclic" and s % 2 == 0:
            raise PreconditionError(f"negacyclic exponent {s} is even")
        x = s
        while x not in closed:
            closed.add(x)
            x = (x * q) % mod
    return DefiningSet(kind, n, q, frozenset(closed))


def hermitian_dual_defining_set(t: DefiningSet, base_q: int) -> DefiningSet:
    """Defining set {i in O_n : i not in -q*T} of the Hermitian dual of a
    negacyclic code over GF(q^2)."""
    if t.kind != "negacyclic":
        raise PreconditionError("Hermitian dual defining set needs a negacyclic set")
    if base_q * base_q != t.q:
        raise PreconditionError(f"field order {t.q} is not {base_q}^2")
    mod = 2 * t.n
    minus_qt = {(-base_q * i) % mod for i in t.exponents}
    exps = frozenset(i for i in odd_residues(t.n) if i not in minus_qt)
    return DefiningSet("negacyclic", t.n, t.q, exps)


def bch_bound(t: DefiningSet) -> int:
    """Length of the longest consecutive exponent run in T, plus one.

    Cyclic sets: runs in steps of 1, wrap-around allowed.  Negacyclic sets:
    runs in steps of 2 inside O_n, no wrap.
    """
    exps = set(t.exponents)
    if not exps:
        return 1
    if t.kind == "cyclic":
        if len(exps) == t.n:
            return t.n + 1
        best = 0
        for s in exps:
            if (s - 1) % t.n in exps:
                continue  # not a run start
            length = 0
            x = s
            while x in exps:
                length += 1
                x = (x + 1) % t.n
            best = max(best, length)
        return best + 1
    best = 0
    for s in sorted(exps):
        if s - 2 in exps:
            continue
        length = 0
        x = s
        while x in exps and x < 2 * t.n:
            length += 1
            x += 2
        best = max(best, length)
    return best + 1


# -- splitting fields and generator polynomials -------------------------------

@lru_cache(maxsize=None)
def _splitting_degree(q: int, modulus: int) -> int:
    """Multiplicative order of q mod `modulus`."""
    if gcd(q, modulus) != 1:
        raise PreconditionError(f"gcd({q},{modulus}) != 1")
    k, x = 1, q % modulus
    while x != 1:
        x = (x * q) % modulus
        k += 1
    return k


def splitting_field(field: Field, root_order: int) -> tuple[Field, Embedding]:
    """Smallest extension of `field` containing a primitive root of unity of
    order `root_order`, with the subfield embedding."""
    k = _splitting_degree(field.order, root_order)
    ext = build_field(field.p, field.e * k)
    return ext, get_embedding(field, ext)


def unity_root(ext: Field, root_order: int) -> int:
    """Canonical primitive root of unity: generator^((|ext|-1)/root_order)."""
    if (ext.order - 1) % root_order != 0:
        raise FieldError(f"no primitive {root_order}th root of unity in {ext}")
    return ext.pow(ext.generator, (ext.order - 1) // root_order)


def generator_from_defining_set(t: DefiningSet, field: Field) -> list[int]:
    """Generator polynomial g = prod over T of (x - alpha^i), assembled from
    minimal-polynomial factors over `field`; divides x^n -+ 1 exactly."""
    if field.order != t.q:
        raise PreconditionError(f"field order {field.order} != defining set base {t.q}")
    mod = t.n if t.kind == "cyclic" else 2 * t.n
    ext, emb = splitting_field(field, mod)
    alpha = unity_root(ext, mod)
    remaining = set(t.exponents)
    g = [1]
    while remaining:
        s = min(remaining)
        coset = cyclotomic_coset(mod, field.order, s)
        if not set(coset.members) <= remaining:
            raise PreconditionError("defining set is not q-closed")
        remaining -= set(coset.members)
        factor = [1]
        for j in coset.members:
            factor = poly_mul(factor, [ext.neg(ext.pow(alpha, j)), 1], ext)
        g = poly_mul(g, factor, ext)
    g = [emb.down(c) for c in g]
    sign = -1 if t.kind == "cyclic" else 1
    _, rem = poly_divmod(poly_xn_plus(t.n, sign, field), g, field)
    if poly_deg(rem) >= 0:
        raise CodeError("generator polynomial does not divide x^n -+ 1")
    return g
