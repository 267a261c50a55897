"""Cyclotomic cosets, defining sets, the BCH bound and generator polynomials.

Defining sets follow the root-of-unity conventions: exponents mod n for
cyclic codes and odd exponents mod 2n for negacyclic codes, closed under
multiplication by the field order.  The one polynomial built here is the
generator, a product of linear factors over the splitting field, returned as
a list of field elements, constant term first; there is no general
polynomial arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import CodeError, FieldError, PreconditionError
from .galois import Embedding, Field, build_field, get_embedding

# -- cyclotomic cosets and defining sets --------------------------------------

def cyclotomic_coset(n: int, q: int, s: int) -> tuple:
    """Orbit of s under multiplication by q mod n, as a sorted tuple."""
    if gcd(n, q) != 1:
        raise PreconditionError(f"gcd({n},{q}) != 1")
    if not 0 <= s < n:
        raise PreconditionError(f"exponent {s} out of range mod {n}")
    seen = set()
    x = s
    while x not in seen:
        seen.add(x)
        x = (x * q) % n
    return tuple(sorted(seen))


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
    """Generator polynomial g = prod over T of (x - alpha^j), constant term
    first.  It is built in the splitting field one linear factor at a time,
    g <- x.g - alpha^j.g, and mapped down to `field`; a coefficient outside
    `field` raises FieldError.  `families.cyclic_code_from_defining_set`
    checks that g divides x^n -+ 1."""
    if field.order != t.q:
        raise PreconditionError(f"field order {field.order} != defining set base {t.q}")
    mod = t.n if t.kind == "cyclic" else 2 * t.n
    ext, emb = splitting_field(field, mod)
    alpha = unity_root(ext, mod)
    g = np.ones(1, dtype=np.int64)
    for j in t.sorted_exponents:
        minus_root = ext.neg(ext.pow(alpha, j))
        g = ext.vadd(np.append(0, g), ext.vmul(minus_root, np.append(g, 0)))
    return emb.down(g).tolist()
