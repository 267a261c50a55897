"""Finite fields GF(p^e), subfield embeddings, trace maps and (self-)dual bases.

Elements are plain integers in [0, p^e): the base-p digits of an element are
the coefficients of its polynomial representative, constant term first,
and only `Field.digits` and `Field.from_digits` convert one to the other.  All
fields are built deterministically: the modulus is the lexicographically
smallest monic irreducible polynomial of the right degree and the generator
is the smallest primitive element, so serialized artifacts are reproducible.

Subfield embeddings, trace maps, Gram matrices and (self-)dual bases are
built from whole-field arrays computed once per field pair (see
`Embedding`), not element by element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import FieldError, SearchCapExceeded

SIZE_CAP = 1 << 16
# fields up to this order multiply and add by lookup: a chosen cut-off that
# covers every field the paper's constructions use (GF(2)..GF(256)), not the
# largest table that fits in memory
TABLE_MAX = 256
_BASIS_NODES = 500_000   # search nodes per find_self_dual_basis call


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> list[int]:
    """Distinct prime factors of n."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _check_size(p, e):
    """Reject (p, e) unless both are integers, e >= 1 and p^e <= SIZE_CAP.
    Runs before any primality test or p ** e, so a huge p or e fails at once."""
    if not (_is_int(p) and _is_int(e)):
        raise FieldError(f"field parameters p={p!r}, e={e!r} must be integers")
    if e < 1:
        raise FieldError(f"degree {e} must be positive")
    if p > SIZE_CAP or e > SIZE_CAP.bit_length() or p ** e > SIZE_CAP:
        raise FieldError(f"field order {p}^{e} exceeds size cap {SIZE_CAP}")


def prime_power(q: int) -> tuple[int, int]:
    """Split a prime power q <= SIZE_CAP into (p, e). Raises FieldError
    otherwise."""
    if q > SIZE_CAP:
        raise FieldError(f"field order {q} exceeds size cap {SIZE_CAP}")
    for p in factorize(q):
        e = 0
        n = q
        while n % p == 0:
            n //= p
            e += 1
        if n == 1:
            return p, e
    raise FieldError(f"{q} is not a prime power")


# -- polynomial helpers over GF(p), coefficients as digit lists ---------------

def _pdeg(a):
    d = len(a) - 1
    while d >= 0 and a[d] == 0:
        d -= 1
    return d


def _pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _pmod(a, mod, p):
    a = list(a)
    dm = _pdeg(mod)
    inv_lead = pow(mod[dm], p - 2, p)
    for i in range(len(a) - 1, dm - 1, -1):
        if a[i]:
            c = (a[i] * inv_lead) % p
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return a[:dm]


def _poly_is_irreducible(coeffs, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    d = _pdeg(coeffs)
    if d <= 0:
        return False
    if coeffs[0] == 0:
        return d == 1
    for dd in range(1, d // 2 + 1):
        for idx in range(p ** dd):
            div = _digits(idx, p, dd) + [1]
            rem = _pmod(coeffs, div, p)
            if _pdeg(rem) < 0:
                return False
    return True


def _digits(x, p, width):
    out = []
    for _ in range(width):
        out.append(x % p)
        x //= p
    return out


def _pack(digits, p):
    x = 0
    for d in reversed(digits):
        x = x * p + d
    return x


def _mul_raw(a, b, p, modulus):
    """a * b in GF(p)[x] / (modulus), by polynomial arithmetic (no tables)."""
    e = len(modulus) - 1
    prod = _pmul(_digits(a, p, e), _digits(b, p, e), p)
    return _pack(_pmod(prod, list(modulus), p), p)


def _check_record(p, e, modulus, generator):
    """Validate a field's parameters before anything is built from them:
    the size rules of `_check_size`, a prime p, a monic modulus of degree e
    with integer coefficients in 0..p-1, and an integer generator in 1..q-1."""
    _check_size(p, e)
    if not is_prime(p):
        raise FieldError(f"characteristic {p} is not prime")
    if len(modulus) != e + 1 or modulus[e] != 1:
        raise FieldError("modulus must be monic of degree e")
    if not all(_is_int(c) and 0 <= c < p for c in modulus):
        raise FieldError(f"modulus coefficients {list(modulus)} must be "
                         f"integers in 0..{p - 1}")
    if not (_is_int(generator) and 1 <= generator < p ** e):
        raise FieldError(f"generator {generator!r} must be an integer in "
                         f"1..{p ** e - 1}")


class Field:
    """GF(p^e) with fixed modulus and primitive generator.

    The log/antilog tables of the generator g come from the map x -> g*x
    over all q elements, formed in one numpy pass from the images of the e
    basis monomials, since multiplying by g is GF(p)-linear; the chain
    1, g, g^2, ... is then q - 1 lookups in that map.  Addition is XOR when
    p = 2.  For 2 < q <= TABLE_MAX the field also holds a q x q product
    table and, for odd p, a q x q sum table and a negation table, built once
    from the log/antilog product and the base-p digits: `vmul`, `vadd` and
    `vneg` are then one lookup each (GF(2) multiplies by AND).  For
    q > TABLE_MAX (e.g. GF(257), GF(729), GF(2^16)) `vmul` adds logs and,
    for odd p, `vadd`/`vneg` add or negate `digits` mod p.

    The parameters are validated before any table is built: integers with
    e >= 1 and p^e <= SIZE_CAP (checked before p is tested for primality),
    a prime p, a monic irreducible modulus of degree e with integer
    coefficients in 0..p-1, and an integer generator in 1..q-1 whose powers
    reach every nonzero element.  Anything else raises FieldError.
    """

    def __init__(self, p: int, e: int, modulus: list[int], generator: int):
        modulus = tuple(modulus)
        _check_record(p, e, modulus, generator)
        self.p = p
        self.e = e
        self.order = p ** e
        self._scale = p ** np.arange(e, dtype=np.int64)
        self.modulus = modulus
        if not _poly_is_irreducible(list(self.modulus), p):
            raise FieldError("modulus is reducible")
        self.generator = generator
        self._build_tables()
        if self.log[generator] != 1 and self.order > 2:
            raise FieldError("generator table construction failed")

    def _build_tables(self):
        p, e, q = self.p, self.e, self.order
        images = [_mul_raw(p ** i, self.generator, p, self.modulus)
                  for i in range(e)]
        x = np.arange(q, dtype=np.int64)
        if p == 2:
            times_g = np.zeros(q, dtype=np.int64)
            for i, image in enumerate(images):
                times_g ^= ((x >> i) & 1) * image
        else:
            times_g = self.from_digits(
                self.digits(x) @ self.digits(images) % p)
        step = times_g.tolist()
        chain = [1]
        for _ in range(q - 2):
            chain.append(step[chain[-1]])
        exp = np.array(chain, dtype=np.int64)
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        # a non-primitive g returns to 1 early, so some element gets no log
        if step[chain[-1]] != 1 or (log[1:] < 0).any():
            raise FieldError(f"generator {self.generator} is not primitive")
        self.exp = exp
        self.log = log
        self._mul_table = self._add_table = self._neg_table = None
        if 2 < q <= TABLE_MAX:   # each table from the arithmetic it replaces
            self._mul_table = self.vmul(x[:, None], x)
            if p != 2:
                self._add_table = self.vadd(x[:, None], x)
                self._neg_table = self.vneg(x)

    # -- scalar arithmetic ----------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        return int(self.vadd(a, b))

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.e == 1:
            return -a % self.p
        return int(self.vneg(a))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self.exp[(self.log[a] + self.log[b]) % (self.order - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return int(self.exp[(-self.log[a]) % (self.order - 1)])

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            return 1 if k == 0 else 0
        return int(self.exp[(self.log[a] * k) % (self.order - 1)])

    # -- vectorized arithmetic on numpy int arrays ----------------------------
    def digits(self, a) -> np.ndarray:
        """The base-p digits of `a` (int64, constant term first) in a new
        last axis, outermost in memory: work on digits runs along elements."""
        a = np.asarray(a, dtype=np.int64)
        place = (-1,) + (1,) * a.ndim
        if self.p == 2:
            d = (a >> np.arange(self.e).reshape(place)) & 1
        else:
            d = a // self._scale.reshape(place) % self.p
        return d.transpose(*range(1, d.ndim), 0)

    def from_digits(self, d) -> np.ndarray:
        """The elements whose base-p digits lie in the last axis of `d`."""
        return np.einsum("...i,i", d, self._scale)

    def vadd(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self._add_table is not None:
            return self._add_table[a, b]
        s = self.digits(a) + self.digits(b)
        return self.from_digits(np.remainder(s, self.p, out=s))

    def vneg(self, a):
        a = np.asarray(a, dtype=np.int64)
        if self.p == 2:
            return a.copy()
        if self._neg_table is not None:
            return self._neg_table[a]
        return self.from_digits(-self.digits(a) % self.p)

    def vmul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.order == 2:
            return a & b
        if self._mul_table is not None:
            return self._mul_table[a, b]
        nz = (a != 0) & (b != 0)
        la = self.log[np.where(a != 0, a, 1)]
        lb = self.log[np.where(b != 0, b, 1)]
        prod = self.exp[(la + lb) % (self.order - 1)]
        return np.where(nz, prod, 0)

    def vpow(self, a, k: int):
        a = np.asarray(a, dtype=np.int64)
        nz = a != 0
        la = self.log[np.where(nz, a, 1)]
        out = self.exp[(la * k) % (self.order - 1)]
        return np.where(nz, out, 1 if k == 0 else 0)

    # -- structure ------------------------------------------------------------
    @property
    def is_square_order(self) -> bool:
        return self.e % 2 == 0

    @property
    def conj_base(self) -> int:
        """q with |field| = q^2, for Hermitian conjugation x -> x^q."""
        if not self.is_square_order:
            raise FieldError(f"GF({self.order}) is not a square extension")
        return self.p ** (self.e // 2)

    def conj(self, a: int) -> int:
        return self.pow(a, self.conj_base)

    def vconj(self, a):
        return self.vpow(a, self.conj_base)

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus),
                "generator": self.generator}

    def __repr__(self):
        return f"GF({self.order})"

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.e, self.modulus, self.generator)
                == (other.p, other.e, other.modulus, other.generator))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus, self.generator))


def _lowest_irreducible(p: int, e: int) -> list[int]:
    """Lexicographically smallest monic irreducible of degree e over GF(p).

    Lex order is over the coefficient tuple (c_0, ..., c_{e-1}).
    """
    if e == 1:
        return [0, 1]  # x itself; GF(p) needs no real modulus
    for idx in range(p ** e):
        cand = _digits(idx, p, e) + [1]
        if _poly_is_irreducible(cand, p):
            return cand
    raise FieldError("no irreducible polynomial found")  # unreachable


@lru_cache(maxsize=None)
def build_field(p: int, e: int) -> Field:
    """Deterministic GF(p^e): lowest-lex modulus, smallest primitive generator."""
    _check_size(p, e)
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    modulus = _lowest_irreducible(p, e)
    q = p ** e
    if q == 2:
        return Field(2, 1, modulus, 1)
    factors = factorize(q - 1)

    def pow_raw(a, k):
        r = 1
        while k:
            if k & 1:
                r = _mul_raw(r, a, p, modulus)
            a = _mul_raw(a, a, p, modulus)
            k >>= 1
        return r

    for g in range(2, q):
        if all(pow_raw(g, (q - 1) // f) != 1 for f in factors):
            return Field(p, e, modulus, g)
    raise FieldError("no primitive element found")  # unreachable


def field_from_q(q: int) -> Field:
    p, e = prime_power(q)
    return build_field(p, e)


def field_from_json(rec: dict) -> Field:
    """The cached build_field(p, e) when the record names its modulus and
    generator, else a Field built from the record.  The record is validated
    first, by the rules listed on Field."""
    p, e = rec["p"], rec["e"]
    modulus, generator = tuple(rec["modulus"]), rec["generator"]
    _check_record(p, e, modulus, generator)
    f = build_field(p, e)
    if (f.modulus, f.generator) == (modulus, generator):
        return f
    return Field(p, e, list(modulus), generator)


class Embedding:
    """Field homomorphism GF(p^s) -> GF(p^(s*m)) mapping the subfield modulus
    root to its smallest root in the extension.

    Everything is a whole-field array built once per field pair: `image`
    holds the image of every subfield element, `preimage` the subfield
    element of every extension element (-1 off the image), and `traces`,
    built on first use, the trace of every extension element."""

    def __init__(self, sub: Field, ext: Field):
        if sub.p != ext.p or ext.e % sub.e != 0:
            raise FieldError(f"{sub} is not a subfield of {ext}")
        self.sub = sub
        self.ext = ext
        self.m = ext.e // sub.e
        # the subfield modulus at every extension element, by Horner's rule
        xs = np.arange(ext.order, dtype=np.int64)
        acc = np.zeros(ext.order, dtype=np.int64)
        for c in reversed(sub.modulus):
            acc = ext.vadd(ext.vmul(acc, xs), c)
        roots = np.flatnonzero(acc == 0)
        if not roots.size:
            raise FieldError("subfield modulus has no root in extension")
        self.root = int(roots[0])
        # a subfield element is the sum of its base-p digits times root^t
        powers = [ext.pow(self.root, t) for t in range(sub.e)]
        subs = np.arange(sub.order, dtype=np.int64)
        self.image = ext.from_digits(
            sub.digits(subs) @ ext.digits(powers) % ext.p)
        self.preimage = np.full(ext.order, -1, dtype=np.int64)
        self.preimage[self.image] = subs

    @cached_property
    def traces(self) -> np.ndarray:
        """Tr_{ext/sub}(x) = sum of x^(q^i), i < m, for every extension
        element x, as subfield elements: m - 1 Frobenius steps."""
        xs = acc = np.arange(self.ext.order, dtype=np.int64)
        for _ in range(self.m - 1):
            xs = self.ext.vpow(xs, self.sub.order)
            acc = self.ext.vadd(acc, xs)
        return self.down(acc)

    def down(self, x):
        """The subfield element of extension element `x`, or the elements of
        an array of them as a numpy array; FieldError off the subfield."""
        out = self.preimage[x]
        if (out < 0).any():
            bad = np.asarray(x)[out < 0].flat[0]
            raise FieldError(f"element {bad} of {self.ext} is not in "
                             f"{self.sub}")
        return int(out) if np.ndim(out) == 0 else out


@lru_cache(maxsize=None)
def get_embedding(sub: Field, ext: Field) -> Embedding:
    """The embedding GF(sub) -> GF(ext), one per pair of (value-equal) fields."""
    return Embedding(sub, ext)


@dataclass(frozen=True)
class ExtensionBasis:
    """A basis of the extension field over the subfield, via its embedding."""

    emb: Embedding
    elements: tuple

    @property
    def m(self) -> int:
        return self.emb.m

    def gram(self) -> np.ndarray:
        """Trace Gram matrix [Tr(a_i a_j)] with entries in the subfield."""
        els = np.array(self.elements, dtype=np.int64)
        return self.emb.traces[self.emb.ext.vmul(els[:, None], els)]

    def is_self_dual(self) -> bool:
        return bool(np.array_equal(self.gram(), np.eye(self.m, dtype=np.int64)))


def standard_basis(emb: Embedding) -> ExtensionBasis:
    """Power basis {1, g, g^2, ...} of the extension generator."""
    g = emb.ext.generator
    return ExtensionBasis(emb, tuple(emb.ext.pow(g, i) for i in range(emb.m)))


def find_dual_basis(basis: ExtensionBasis) -> ExtensionBasis:
    """The unique basis B' with Tr(a_i b_j) = delta_ij."""
    from . import gflinalg
    emb = basis.emb
    ginv = gflinalg.inv_matrix(basis.gram(), emb.sub)
    # b_j = sum_i ginv[i, j] a_i, for all j at once
    terms = emb.ext.vmul(emb.image[ginv],
                         np.array(basis.elements, dtype=np.int64)[:, None])
    return ExtensionBasis(emb, tuple(reduce(emb.ext.vadd, terms).tolist()))


def self_dual_basis_exists(sub: Field, m: int) -> bool:
    """Seroussi-Lempel: GF(q^m)/GF(q) has a self-dual basis iff q is even
    or both q and m are odd."""
    q = sub.order
    return q % 2 == 0 or (q % 2 == 1 and m % 2 == 1)


def find_self_dual_basis(sub: Field, ext: Field):
    """Orthonormal (trace Gram = identity) basis, or None when none exists.

    Deterministic lexicographic depth-first search.  Raises SearchCapExceeded
    if the node budget runs out at a size where existence is guaranteed.
    """
    emb = get_embedding(sub, ext)
    m = emb.m
    if not self_dual_basis_exists(sub, m):
        return None
    tr = emb.traces.tolist()

    def trp(x, y):
        return tr[ext.mul(x, y)]

    xs = np.arange(1, ext.order, dtype=np.int64)
    unit_cands = xs[emb.traces[ext.vmul(xs, xs)] == 1].tolist()

    nodes = 0

    def dfs(chosen, cands):
        nonlocal nodes
        if len(chosen) == m:
            return list(chosen)
        for idx, x in enumerate(cands):
            nodes += 1
            if nodes > _BASIS_NODES:
                raise SearchCapExceeded("self-dual basis search budget exhausted")
            nxt = [y for y in cands[idx + 1:] if trp(x, y) == 0]
            if len(nxt) < m - len(chosen) - 1:
                continue
            got = dfs(chosen + [x], nxt)
            if got is not None:
                return got
        return None

    found = dfs([], unit_cands)
    if found is None:
        raise SearchCapExceeded(
            "no self-dual basis found although existence is guaranteed")
    basis = ExtensionBasis(emb, tuple(found))
    assert basis.is_self_dual()
    return basis

