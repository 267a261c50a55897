"""Linear codes over GF(q): canonical generator matrices, duals, exact and
bounded minimum distance, relative weights, and subfield basis expansions.

Codes are stored in reduced row echelon form, so equality and containment are
matrix comparisons.  Exact distances and relative weights come from one
enumeration kernel.  It holds vectors as base-p digit planes: bits packed
into uint64 words when p = 2, one small unsigned integer per digit for odd p.
It tabulates every combination of the low generator rows, as many as fit in
a table capped in bytes, and walks the high messages in message-index order,
so each block is the table plus one offset vector.  Row 0 is the
least-significant message digit, and the witness is the first
minimum-weight codeword in that order.  For the relative weight of C2 over
C1, the syndrome columns G2.H1^T are appended to the generator, and a
codeword lies outside C1 exactly when its syndrome digits are nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import combinations

import numpy as np

from . import gflinalg
from .errors import CodeError, PreconditionError, SearchCapExceeded
from .galois import ExtensionBasis, Field, build_field, field_from_json

DEFAULT_CAP = 1 << 24
_TABLE_BYTES = 1 << 22   # low-row combination table of _enumerate


@dataclass
class DistanceResult:
    value: int
    exactness: str            # "exact" | "lower_bound" | "upper_bound"
    witness: tuple | None = None
    method: str = "enumeration"   # enumeration | mds_rank | bch_bound | declared
    upper: int | None = None      # sampled upper bound, for non-exact results

    def to_json(self) -> dict:
        out = {"value": self.value, "exactness": self.exactness,
               "method": self.method}
        if self.upper is not None:
            out["upper"] = self.upper
        return out


class LinearCode:
    """An [n,k]_q code held as a canonical (rref) generator matrix."""

    def __init__(self, field: Field, rows, provenance: str = "",
                 design_distance: int | None = None,
                 declared_distance: int | None = None):
        a = np.array(rows, dtype=np.int64)
        if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
            raise CodeError("generator matrix must be a non-empty 2-d array")
        if a.min() < 0 or a.max() >= field.order:
            raise CodeError("matrix entries outside field range")
        self.field = field
        self.matrix, self.pivots = gflinalg.rref(a, field)
        self.n = int(a.shape[1])
        self.provenance = provenance
        # certified lower bound (e.g. BCH bound) / claimed-but-unverified value
        self.design_distance = design_distance
        self.declared_distance = declared_distance
        self.distance_info: DistanceResult | None = None
        self._dual = None

    @property
    def k(self) -> int:
        return int(self.matrix.shape[0])

    def __eq__(self, other):
        return (isinstance(other, LinearCode) and self.field == other.field
                and self.n == other.n and self.k == other.k
                and np.array_equal(self.matrix, other.matrix))

    def __hash__(self):
        return hash((self.field, self.n, self.k, self.matrix.tobytes()))

    def __repr__(self):
        return f"[{self.n},{self.k}]_{self.field.order}"

    # -- membership and containment -------------------------------------------
    def contains_word(self, v) -> bool:
        v = np.asarray(v, dtype=np.int64)
        if v.shape != (self.n,):
            raise CodeError("word length mismatch")
        return gflinalg.in_rowspace(self.matrix, self.pivots, v, self.field)

    def contains_allones(self) -> bool:
        return self.contains_word(np.ones(self.n, dtype=np.int64))

    def contains_code(self, inner: "LinearCode") -> bool:
        if inner.field != self.field or inner.n != self.n:
            raise CodeError("field/length mismatch")
        return all(self.contains_word(r) for r in inner.matrix)

    # -- duals ----------------------------------------------------------------
    def dual(self) -> "LinearCode":
        if self._dual is None:
            if self.k == self.n:
                ns = np.zeros((0, self.n), dtype=np.int64)
            else:
                ns = gflinalg.nullspace(self.matrix, self.field)
            d = LinearCode.__new__(LinearCode)
            d.field = self.field
            if ns.shape[0] == 0:
                d.matrix = np.zeros((0, self.n), dtype=np.int64)
                d.pivots = []
            else:
                d.matrix, d.pivots = gflinalg.rref(ns, self.field)
            d.n = self.n
            d.provenance = f"dual({self.provenance})" if self.provenance else "dual"
            d.design_distance = None
            d.declared_distance = None
            d.distance_info = None
            d._dual = self
            self._dual = d
        return self._dual

    def conjugated(self) -> "LinearCode":
        """Entrywise Frobenius conjugation x -> x^q over GF(q^2)."""
        return LinearCode(self.field, self.field.vconj(self.matrix),
                          provenance=f"conj({self.provenance})")

    def hermitian_dual(self) -> "LinearCode":
        """Euclidean dual of the entrywise q-conjugated code."""
        if not self.field.is_square_order:
            raise CodeError(f"GF({self.field.order}) has no Hermitian structure")
        return self.conjugated().dual()

    def parity_check(self) -> np.ndarray:
        return self.dual().matrix

    # -- derived codes --------------------------------------------------------
    def puncture(self, position: int | None = None) -> "LinearCode":
        if position is None:
            position = self.n - 1
        if not 0 <= position < self.n:
            raise CodeError(f"puncture position {position} out of range")
        rows = np.delete(self.matrix, position, axis=1)
        return LinearCode(self.field, rows,
                          provenance=f"puncture({self.provenance}@{position})")

    def extend_parity(self) -> "LinearCode":
        f = self.field
        sums = np.zeros(self.k, dtype=np.int64)
        for j in range(self.n):
            sums = f.vadd(sums, self.matrix[:, j])
        rows = np.concatenate([self.matrix, f.vneg(sums)[:, None]], axis=1)
        return LinearCode(f, rows, provenance=f"extend({self.provenance})")

    def params(self) -> tuple:
        return (self.n, self.k, self.field.order)

    def to_json(self) -> dict:
        out = {"field": self.field.to_json(), "n": self.n, "k": self.k,
               "generator": self.matrix.tolist(), "provenance": self.provenance,
               "distance": self.distance_info.to_json() if self.distance_info else None}
        if self.design_distance is not None:
            out["design_distance"] = self.design_distance
        if self.declared_distance is not None:
            out["declared_distance"] = self.declared_distance
        return out


def from_generator(field: Field, rows, provenance: str = "",
                   design_distance: int | None = None,
                   declared_distance: int | None = None) -> LinearCode:
    return LinearCode(field, rows, provenance=provenance,
                      design_distance=design_distance,
                      declared_distance=declared_distance)


def code_from_json(rec: dict) -> LinearCode:
    f = field_from_json(rec["field"])
    c = LinearCode(f, rec["generator"], provenance=rec.get("provenance", ""),
                   design_distance=rec.get("design_distance"),
                   declared_distance=rec.get("declared_distance"))
    if rec.get("k") is not None and c.k != rec["k"]:
        raise CodeError(f"record claims dimension {rec['k']}, matrix has rank {c.k}")
    d = rec.get("distance")
    if d:
        c.distance_info = DistanceResult(d["value"], d["exactness"],
                                         method=d.get("method", "declared"),
                                         upper=d.get("upper"))
    return c


def direct_sum(a: LinearCode, b: LinearCode) -> LinearCode:
    if a.field != b.field:
        raise CodeError("direct sum needs codes over the same field")
    top = np.concatenate([a.matrix, np.zeros((a.k, b.n), dtype=np.int64)], axis=1)
    bot = np.concatenate([np.zeros((b.k, a.n), dtype=np.int64), b.matrix], axis=1)
    return LinearCode(a.field, np.concatenate([top, bot], axis=0),
                      provenance=f"({a.provenance})(+)({b.provenance})")


# -- weight enumeration -------------------------------------------------------

def _digit_planes(f: Field, vals: np.ndarray, n: int) -> np.ndarray:
    """Elements (..., N) -> base-p digit planes (..., e, W).

    For p = 2 each plane is packed little-endian into uint64 words, with
    positions [0, n) and [n, N) starting separate words; for odd p each
    digit is one small unsigned integer.
    """
    digits = (vals[..., None, :] // f.p ** np.arange(f.e)[:, None]) % f.p
    if f.p != 2:
        return digits.astype(np.min_scalar_type(2 * (f.p - 1)))
    parts = []
    for part in (digits[..., :n], digits[..., n:]):
        pad = -part.shape[-1] % 64
        part = np.pad(part.astype(np.uint8),
                      [(0, 0)] * (part.ndim - 1) + [(0, pad)])
        parts.append(np.packbits(part, axis=-1, bitorder="little").view("<u8"))
    return np.concatenate(parts, axis=-1)


def _enumerate(code: LinearCode, exclude: LinearCode | None):
    """Minimum weight, and the first codeword of that weight in message-index
    order, over the nonzero codewords of `code` outside `exclude` (if given).
    The walk is described in the module docstring."""
    f = code.field
    p, q = f.p, f.order
    g = code.matrix
    k, n = g.shape
    if exclude is not None:
        g = np.concatenate(
            [g, gflinalg.matmul(g, exclude.parity_check().T, f)], axis=1)
    # scaled[j, c] = digit planes of c * row j
    scaled = _digit_planes(f, f.vmul(np.arange(q)[:, None, None], g[None]),
                           n).transpose(1, 0, 2, 3)
    wc = -(-n // 64) if p == 2 else n   # words (or digits) of the codeword

    if p == 2:
        add = np.bitwise_xor
    else:
        def add(a, b):
            s = a + b
            np.subtract(s, p, out=s, where=s >= p)
            return s

    t = 1
    while t < k and q ** (t + 1) * scaled[0, 0].nbytes <= _TABLE_BYTES:
        t += 1
    table = scaled[0]
    for j in range(1, t):
        table = add(table[None], scaled[j][:, None])
        table = table.reshape(-1, *table.shape[2:])

    best_w, best = n + 1, None
    for h in range(q ** (k - t)):
        off = np.zeros_like(table[0])
        for j in range(t, k):
            d = h // q ** (j - t) % q
            if d:
                off = add(off, scaled[j, d])
        block = add(table, off)
        nz = block[:, 0, :wc]
        for pl in range(1, f.e):
            nz = nz | block[:, pl, :wc]
        if p == 2:
            bits = np.bitwise_count(nz)
            weights = bits[:, 0].astype(np.int64)
            for w in range(1, wc):   # cheaper than a reduction over words
                weights += bits[:, w]
        else:
            weights = np.count_nonzero(nz, axis=1)
        if exclude is not None:
            inside = ~block[:, :, wc:].reshape(len(block), -1).any(axis=1)
            weights[inside] = n + 1
        elif h == 0:
            weights[0] = n + 1   # rows are independent: only message 0 is zero
        i = int(np.argmin(weights))
        if weights[i] < best_w:
            best_w, best = int(weights[i]), block[i].copy()
    if best is None:
        return best_w, None
    if p == 2:
        digits = np.unpackbits(best[:, :wc].copy().view(np.uint8), axis=-1,
                               bitorder="little")[:, :n]
    else:
        digits = best[:, :n]
    cw = (digits.astype(np.int64) * (p ** np.arange(f.e))[:, None]).sum(axis=0)
    return best_w, tuple(int(x) for x in cw)


def _sampled_upper(code: LinearCode, samples: int = 2000, seed: int = 0):
    rng = np.random.default_rng(seed)
    f = code.field
    best = code.n
    for _ in range(samples):
        msg = rng.integers(0, f.order, size=code.k)
        if not msg.any():
            continue
        cw = np.zeros(code.n, dtype=np.int64)
        for j in range(code.k):
            if msg[j]:
                cw = f.vadd(cw, f.vmul(int(msg[j]), code.matrix[j]))
        w = int(np.count_nonzero(cw))
        if 0 < w < best:
            best = w
    return best


def min_distance(code: LinearCode, cap: int = DEFAULT_CAP) -> DistanceResult:
    """Exact minimum distance by full enumeration when q^k <= cap, else a
    certified lower bound plus a sampled upper bound."""
    if code.k == 0:
        raise CodeError("minimum distance of the zero code is undefined")
    if code.distance_info is not None and code.distance_info.exactness == "exact":
        return code.distance_info
    if code.field.order ** code.k <= cap:
        w, cw = _enumerate(code, None)
        res = DistanceResult(w, "exact", witness=cw, method="enumeration")
    else:
        lower = 1
        method = "declared"
        if code.design_distance:
            lower, method = code.design_distance, "bch_bound"
        if code.declared_distance and code.declared_distance > lower:
            lower, method = code.declared_distance, "declared"
        res = DistanceResult(lower, "lower_bound", method=method,
                             upper=_sampled_upper(code))
    code.distance_info = res
    return res


def relative_min_weight(c2: LinearCode, c1: LinearCode,
                        cap: int = DEFAULT_CAP) -> DistanceResult:
    """Minimum weight over codewords of c2 that are not in c1."""
    if not c2.contains_code(c1):
        raise PreconditionError("inner code is not contained in the outer code")
    if c1.k >= c2.k:
        raise PreconditionError("relative weight needs proper nesting (k1 < k2)")
    if c2.field.order ** c2.k <= cap:
        w, cw = _enumerate(c2, c1)
        return DistanceResult(w, "exact", witness=cw, method="enumeration")
    lower = 1
    method = "declared"
    if c2.design_distance:
        lower, method = c2.design_distance, "bch_bound"
    if c2.declared_distance and c2.declared_distance > lower:
        lower, method = c2.declared_distance, "declared"
    return DistanceResult(lower, "lower_bound", method=method)


def is_mds(code: LinearCode, subset_cap: int = 1_000_000) -> bool:
    """True iff every k-subset of generator columns is nonsingular."""
    n, k = code.n, code.k
    if code.distance_info is not None and code.distance_info.exactness == "exact":
        return code.distance_info.value == n - k + 1
    if math.comb(n, k) > subset_cap:
        raise SearchCapExceeded(
            f"C({n},{k}) column subsets exceed cap {subset_cap}")
    for cols in combinations(range(n), k):
        sub = code.matrix[:, cols]
        if gflinalg.rank(sub, code.field) < k:
            return False
    return True


def mds_witness(code: LinearCode) -> tuple:
    """A weight-(n-k+1) codeword of an MDS code: eliminate k-1 coordinates."""
    k, n = code.k, code.n
    m = code.matrix[:, :k - 1] if k > 1 else np.zeros((k, 0), dtype=np.int64)
    ns = gflinalg.nullspace(m.T, code.field) if k > 1 else np.eye(1, k, dtype=np.int64)
    combo = ns[0]
    cw = gflinalg.matmul(combo[None, :], code.matrix, code.field)[0]
    return tuple(int(x) for x in cw)


# -- subfield expansion -------------------------------------------------------

class BasisExpander:
    """Coordinate map GF(q^m) -> GF(q)^m with respect to a fixed basis."""

    def __init__(self, basis: ExtensionBasis):
        emb = basis.emb
        sub, ext = emb.sub, emb.ext
        p = ext.p
        prime = build_field(p, 1)
        m = emb.m
        if len(basis.elements) != m:
            raise CodeError("basis size does not match extension degree")
        cols = []
        for alpha in basis.elements:
            for t in range(sub.e):
                unit = p ** t
                val = ext.mul(emb.up(unit), alpha)
                cols.append([(val // p ** i) % p for i in range(ext.e)])
        a = np.array(cols, dtype=np.int64).T  # ext.e x (m*sub.e)
        self._ainv = gflinalg.inv_matrix(a, prime)
        self._prime = prime
        self.basis = basis
        self.sub, self.ext, self.m = sub, ext, m
        # per-element coordinate table
        table = np.zeros((ext.order, m), dtype=np.int64)
        pe = np.array([p ** i for i in range(ext.e)], dtype=np.int64)
        for x in range(ext.order):
            digs = (x // pe) % p
            coords = gflinalg.matmul(self._ainv, digs[:, None], prime)[:, 0]
            for i in range(m):
                v = 0
                for t in reversed(range(sub.e)):
                    v = v * p + int(coords[i * sub.e + t])
                table[x, i] = v
        self.table = table

    def psi(self, x: int):
        return tuple(int(v) for v in self.table[x])

    def expand_vector(self, v):
        return self.table[np.asarray(v, dtype=np.int64)].reshape(-1)


_expander_cache: dict = {}


def _expander(basis: ExtensionBasis) -> BasisExpander:
    key = (basis.emb.sub, basis.emb.ext, basis.elements)
    if key not in _expander_cache:
        _expander_cache[key] = BasisExpander(basis)
    return _expander_cache[key]


def expand_basis(code: LinearCode, basis: ExtensionBasis) -> LinearCode:
    """Phi_B image: [n,k] over GF(q^m) -> [nm,km] over GF(q)."""
    if basis.emb.ext != code.field:
        raise CodeError("basis extension field does not match the code's field")
    exp = _expander(basis)
    rows = []
    for r in code.matrix:
        for b in basis.elements:
            rows.append(exp.expand_vector(code.field.vmul(b, r)))
    out = LinearCode(exp.sub, np.array(rows, dtype=np.int64),
                     provenance=f"expand({code.provenance})")
    if out.k != code.k * exp.m:
        raise CodeError("expansion lost rank; basis is not a basis")
    return out


def expand_with_parity(code: LinearCode, basis: ExtensionBasis,
                       subset_cap: int = 1_000_000) -> LinearCode:
    """Phi_B image with an overall parity symbol per coordinate block:
    an MDS [n,k] code over GF(q^m) becomes [(m+1)n, km] over GF(q) with
    declared distance 2(n-k+1)."""
    if basis.emb.ext != code.field:
        raise CodeError("basis extension field does not match the code's field")
    if not is_mds(code, subset_cap=subset_cap):
        raise PreconditionError("parity-augmented expansion requires an MDS code")
    exp = _expander(basis)
    sub = exp.sub
    m = exp.m
    # per-symbol expansion table with trailing parity entry
    ext_tab = np.zeros((exp.ext.order, m + 1), dtype=np.int64)
    ext_tab[:, :m] = exp.table
    for x in range(exp.ext.order):
        s = 0
        for i in range(m):
            s = sub.add(s, int(exp.table[x, i]))
        ext_tab[x, m] = sub.neg(s)
    rows = []
    for r in code.matrix:
        for b in basis.elements:
            v = code.field.vmul(b, r)
            rows.append(ext_tab[np.asarray(v, dtype=np.int64)].reshape(-1))
    out = LinearCode(sub, np.array(rows, dtype=np.int64),
                     provenance=f"expand_parity({code.provenance})",
                     declared_distance=2 * (code.n - code.k + 1))
    if out.k != code.k * m:
        raise CodeError("expansion lost rank; basis is not a basis")
    return out
