"""Linear codes over GF(q): canonical generator matrices, duals, exact and
bounded minimum distance, relative weights, and subfield basis expansions.

Codes are stored in reduced row echelon form, so equality and containment are
matrix comparisons.  Exact distances and relative weights come from one
enumeration kernel.  It holds vectors as base-p digit planes: bits packed
into uint64 words when p = 2, one small unsigned integer per digit for odd p.
The layout is word-major: a block of R words is an (e.W, R) array, so each
(plane, word) pair is one contiguous row.

Both walks, the exhaustive one and the search below, run in one block loop,
_walk.  A walk starts from the digit planes of 0 and of every c.g_j, c != 0
(_multiples of its generator rows g_j); its block source makes a table and
an array of offsets from them and names, block by block, the offset columns
to sum.  The loop adds each block's offsets to every table column in one
broadcast add, into one buffer allocated at the first block, the largest
(for odd p a second half holds the wrap of the digit sum).  Weights are
popcounts of the ORed planes (p = 2) or counts of nonzero digits (odd p),
summed over rows in the smallest unsigned type that holds n + 1.  One rule,
_lightest_outside, picks a block's winner: the first nonzero word of the
least weight below the best so far whose syndrome x.H1^T is nonzero (so it
lies outside C1).  Only a block with a lighter word tests syndromes: a
word's syndrome is the same sum over the multiples of the syndrome rows,
nonzero where its table column differs from the offset negated; the loop
asks for the syndrome table the first time a block tests syndromes.  The
loop stops after the first block that leaves the best weight at its target.

The exhaustive walk, _enumerate, tabulates every combination of the low
generator rows, as many as fit in _TABLE_BYTES with their syndrome rows.
Its offsets are the multiples themselves, so a block is one high message
in message-index order, the sum of the columns c.g_j of its nonzero high
digits.  Its syndrome rows are S = G2.H1^T, one product per walk; their
multiples lie below those of G, so one table holds both.  A sweep of
`table1` plus `table2` from 16 KB to 4 MB (in process, best of 3, 2-core
Xeon VM) found 256 KB and 512 KB fastest, 1 MB 1.3-1.6 times and 4 MB 3-4
times slower, so the table stays at 256 KB.  Weight is invariant under a
nonzero scalar, and c.x lies outside C1 exactly when x does, so the walk
visits one codeword per scalar class: the high block 0, then only the high
messages whose top nonzero digit is 1, q - 1 times fewer words.  Among the
multiples of a message, the one with top digit 1 has the smallest index
(the field's 1 is the integer 1).  Row 0 is the least-significant message
digit, so the witness is still the first minimum-weight codeword in
message-index order.
A walk that would visit more than _WALK_BUDGET words raises
SearchCapExceeded before its table is built.

The walk's target is the code's design distance (1 when there is none), a
certified lower bound; a relative weight uses the bound of C2, since
wt(C2 \\ C1) >= d(C2).  No later word can be lighter, and blocks come in
message-index order with the first minimum kept, so value and witness are
those of the full walk.  A best weight below the bound refutes it and
raises CodeError.

Above the cap (q^k > cap) nothing is enumerated.  A Lee-Brickell
information-set search (p <= 2, a fixed seed and a fixed number of
information sets), the loop's other block source, looks for a light
codeword: its table is the multiples of a systematic generator R, and a
block is a run of rows R_a as offsets.  Each information set is found by
eliminating the smaller of G and H (matroid duality, through
gflinalg.perp_rref), so a high-rate code takes n - k pivot steps per set
instead of k.  The syndrome of its candidate R_a + c.R_j is s_a + c.s_j,
from one product R.H1^T per information set.
The result is exact only when that witness, checked to be in the code and
outside C1, meets a certified lower bound: the design (BCH) distance, or
d >= 2 when no weight-1 word lies in C2 \\ C1.  The exact methods are
`witness_meets_bch_bound`, `witness_meets_no_weight_one` and, for a
weight-1 word, `witness_meets_nonzero`.  Otherwise the result is a
`lower_bound` (method `bch_bound` or `no_weight_one`), or a declared
distance the witness does not refute (kind and method `declared`), with the
witness weight as `upper`.  A declared distance is never a certificate.

Duals, information sets, syndrome columns and containment are read off a
code's rref R and its pivots P, where R[:, P] = I.  Every dual and every
information set comes from gflinalg.perp_rref in min(k, n - k) pivot
steps: the rref of gflinalg.complement (the null space of R in systematic
form) when 2k >= n, else the rref of R with its columns reversed, whose
complement reversed back is already the rref of the null space.
Containment is one product, v - v[:, P].R (gflinalg.reduce_vector).

A basis expansion reads a whole-field coordinate table, built once per
basis from the trace-dual basis, with one lookup for all generator rows.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations

import numpy as np

from . import gflinalg
from .errors import CodeError, PreconditionError, SearchCapExceeded
from .galois import ExtensionBasis, Field, field_from_json, find_dual_basis

DEFAULT_CAP = 1 << 24
_TABLE_BYTES = 1 << 18   # low-row combination table of _enumerate
_SEARCH_SETS = 16        # information sets tried by _witness_search
_SEARCH_BYTES = 1 << 18  # candidate block of _witness_search
# int64 digits of every c.R_j that _witness_search may ask _digit_planes
# for; about twice that is live while they are packed
_SEARCH_ROWS_BUDGET = 1 << 29
_MDS_SUBSETS = 1_000_000  # column subsets is_mds may check
# words _enumerate may visit: at 1.6-7.5 ns/word in characteristic 2 and
# 17-92 ns/word for odd p (2-core Xeon VM), 2^33 words take 14 s to 1 min
# and 2.4 to 13 min
_WALK_BUDGET = 1 << 33
_KINDS = ("exact", "lower_bound", "upper_bound", "declared")


@dataclass(frozen=True)
class Bound:
    """A distance and how it is known.

    `kind` is exact, lower_bound, upper_bound, or declared (a formula value
    whose premises were not all verified).  Only an exact value carries a
    witness codeword; only a non-exact one carries an `upper` bound, the
    weight of a searched codeword that was checked to be in the code (and
    outside the inner code, for a relative weight).
    """

    value: int
    kind: str
    method: str       # enumeration | mds_rank | bch_bound | declared | ...
    witness: tuple | None = None
    upper: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise CodeError(f"unknown bound kind {self.kind!r}")
        if self.witness is not None and not self.exact:
            raise CodeError("only an exact bound carries a witness")
        if self.upper is not None and self.exact:
            raise CodeError("an exact bound carries no upper bound")

    @property
    def exact(self) -> bool:
        return self.kind == "exact"

    def to_json(self) -> dict:
        out = {"value": self.value, "exactness": self.kind,
               "method": self.method}
        if self.upper is not None:
            out["upper"] = self.upper
        return out


class LinearCode:
    """An [n,k]_q code held as a canonical (rref) generator matrix.

    `design_distance` is a proven lower bound on the minimum distance, set
    only by constructors that prove it (the BCH bound of a defining set,
    q - k for Reed-Solomon), kept by conjugation and lowered by one per
    puncture; it is never loaded from JSON.  `declared_distance` is a
    claimed, unverified value.
    """

    def __init__(self, field: Field, rows, provenance: str = "",
                 design_distance: int | None = None,
                 declared_distance: int | None = None):
        a = np.asarray(rows, dtype=np.int64)   # rref copies, after its budget
        if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
            raise CodeError("generator matrix must be a non-empty 2-d array")
        if a.min() < 0 or a.max() >= field.order:
            raise CodeError("matrix entries outside field range")
        self.field = field
        self.matrix, self.pivots = gflinalg.rref(a, field)
        self.n = int(a.shape[1])
        self.provenance = provenance
        self.design_distance = design_distance
        self.declared_distance = declared_distance
        self.distance_info: Bound | None = None
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
        return gflinalg.in_rowspace(self.matrix, self.pivots, inner.matrix,
                                    self.field)

    # -- duals ----------------------------------------------------------------
    def dual(self) -> "LinearCode":
        """The Euclidean dual, from gflinalg.perp_rref of the rref: k pivot
        steps when 2k < n, n - k otherwise.  Computed once; the dual's own
        dual is this code."""
        if self._dual is None:
            d = LinearCode.__new__(LinearCode)
            d.field = self.field
            d.matrix, d.pivots = gflinalg.perp_rref(self.matrix, self.pivots,
                                                    self.field)
            d.n = self.n
            d.provenance = f"dual({self.provenance})" if self.provenance else "dual"
            d.design_distance = None
            d.declared_distance = None
            d.distance_info = None
            d._dual = self
            self._dual = d
        return self._dual

    def conjugated(self) -> "LinearCode":
        """Entrywise Frobenius conjugation x -> x^q over GF(q^2).  It keeps
        every weight, so the design and declared distances carry over."""
        return LinearCode(self.field, self.field.vconj(self.matrix),
                          provenance=f"conj({self.provenance})",
                          design_distance=self.design_distance,
                          declared_distance=self.declared_distance)

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
        # one coordinate fewer lowers a nonzero word's weight by at most 1
        d = self.design_distance
        return LinearCode(self.field, rows,
                          provenance=f"puncture({self.provenance}@{position})",
                          design_distance=d - 1 if d and d > 2 else None)

    def extend_parity(self) -> "LinearCode":
        f = self.field
        sums = gflinalg.matmul(self.matrix, np.ones((self.n, 1), np.int64), f)
        rows = np.concatenate([self.matrix, f.vneg(sums)], axis=1)
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


def code_from_json(rec: dict) -> LinearCode:
    """A code from its JSON record.  Nothing stored is trusted: min_distance
    derives a `distance` block again, and a stored design distance is only
    declared, since a record cannot prove it.  Generator entries, k and the
    stored distances must be integers (TypeError).  Design and declared
    distances must lie in 1..n-k+1 (Singleton); the larger becomes the
    declared distance.  A generator of rank 0 is refused."""
    f = field_from_json(rec["field"])
    for key in ("k", "design_distance", "declared_distance"):
        if rec.get(key) is not None and type(rec[key]) is not int:
            raise TypeError(f"record {key} {rec[key]!r} is not an integer")
    rows = np.asarray(rec["generator"])   # floats, strings, huge: not "i"
    if rows.size and (rows.dtype.kind != "i" or (rows.ndim == 2 and any(
            isinstance(x, bool) for x in chain(*rec["generator"])))):
        raise TypeError(f"generator entries must be integers below {f.order}")
    c = LinearCode(f, rows, provenance=rec.get("provenance", ""))
    if c.k == 0:
        raise CodeError("generator matrix must be a non-empty 2-d array")
    if rec.get("k") is not None and c.k != rec["k"]:
        raise CodeError(f"record claims dimension {rec['k']}, matrix has rank {c.k}")
    stored = []
    for key in ("design_distance", "declared_distance"):
        d = rec.get(key)
        if d is None:
            continue
        if not 1 <= d <= c.n - c.k + 1:
            raise CodeError(f"record {key} {d} is outside 1..{c.n - c.k + 1} "
                            f"for an [{c.n},{c.k}] code")
        stored.append(d)
    c.declared_distance = max(stored, default=None)
    return c


def direct_sum(a: LinearCode, b: LinearCode) -> LinearCode:
    if a.field != b.field:
        raise CodeError("direct sum needs codes over the same field")
    top = np.concatenate([a.matrix, np.zeros((a.k, b.n), dtype=np.int64)], axis=1)
    bot = np.concatenate([np.zeros((b.k, a.n), dtype=np.int64), b.matrix], axis=1)
    return LinearCode(a.field, np.concatenate([top, bot], axis=0),
                      provenance=f"({a.provenance})(+)({b.provenance})")


# -- weight enumeration -------------------------------------------------------

def _digit_planes(f: Field, vals: np.ndarray) -> np.ndarray:
    """Elements (..., n) -> word-major base-p digit planes (e, W, ...).

    Plane and word lead, so for vectors in the trailing axes every (plane,
    word) pair is one row, and a (e.W, R) reshape of a block is a view.
    For p = 2 each plane is packed little-endian into W = ceil(n / 64)
    uint64 words: the bits of f.digits are written into one zeroed uint8
    array of the padded width and packed by one packbits.  For odd p, W = n
    and each digit is the smallest unsigned integer that holds 2(p - 1), the
    sum of two digits (see _plane_adder).
    """
    digits = f.digits(vals)   # (..., n, e)
    if f.p != 2:
        planes = digits.astype(np.min_scalar_type(2 * (f.p - 1)))
        return np.moveaxis(planes, (-1, -2), (0, 1))
    n = vals.shape[-1]
    bits = np.zeros((*vals.shape[:-1], f.e, 64 * -(-n // 64)), dtype=np.uint8)
    bits[..., :n] = digits.swapaxes(-1, -2)
    planes = np.packbits(bits, axis=-1, bitorder="little").view("<u8")
    return np.moveaxis(planes, (-2, -1), (0, 1))


def _plane_adder(p: int):
    """Addition of digit planes, add(a, b, out=None, tmp=None): XOR of
    packed bits for p = 2, digitwise addition mod p otherwise.

    For odd p the planes are unsigned (see _digit_planes) and wide enough
    for s = a + b <= 2(p - 1), so 2^bits > p.  Then s - p wraps to
    s - p + 2^bits > s when s < p, and min(s, s - p) is s mod p without a
    branch or a mask.  `out` takes the sum and `tmp` the difference, so a
    walk adds into two preallocated arrays."""
    if p == 2:
        def add(a, b, out=None, tmp=None):
            return np.bitwise_xor(a, b, out=out)
    else:
        def add(a, b, out=None, tmp=None):
            s = np.add(a, b, out=out)
            return np.minimum(s, np.subtract(s, p, out=tmp), out=s)
    return add


def _weights(f: Field, block: np.ndarray, n: int,
             marks: np.ndarray | None) -> np.ndarray:
    """Hamming weights of the length-n words in the columns of a word-major
    block (e.W, R), as np.min_scalar_type(n + 1).

    The planes are ORed row by row; a weight is a sum of popcounts over the
    W words (p = 2) or a count of the nonzero digits (odd p), both over
    contiguous rows; for odd p a free bool array `marks`, of as many
    elements as the block, takes the nonzero marks."""
    nz = reduce(np.bitwise_or, block.reshape(f.e, -1, block.shape[-1]))
    dtype = np.min_scalar_type(n + 1)
    if f.p != 2:
        out = marks.reshape(block.shape)[:len(nz)]
        return np.not_equal(nz, 0, out=out).sum(axis=0, dtype=dtype)
    weights = np.bitwise_count(nz[0]).astype(dtype, copy=False)
    for w in range(1, len(nz)):
        weights += np.bitwise_count(nz[w])
    return weights


def _lightest_outside(weights: np.ndarray, best_w: int, outside):
    """(weight, column) of the first nonzero word of the least weight below
    best_w in a block, or None.  With `outside`, a word counts only if it
    lies outside C1: outside() marks those words of the block, and it is
    called only when some word is lighter than best_w."""
    light = (weights < best_w) & (weights > 0)
    if not light.any():
        return None
    if outside is not None:
        light &= outside()
    weights = np.where(light, weights, best_w)
    c = int(np.argmin(weights))
    return (int(weights[c]), c) if weights[c] < best_w else None


def _word(f: Field, column: np.ndarray, n: int) -> np.ndarray:
    """The length-n field vector held in one column of a word-major block."""
    digits = column.reshape(f.e, -1)
    if f.p == 2:
        digits = np.unpackbits(digits.copy().view(np.uint8), axis=-1,
                               bitorder="little")[:, :n]
    return f.from_digits(digits.T)


def _walk(f: Field, n: int, tables, blocks, syndromes, best_w: int,
          target: int):
    """The block loop of both walks.  `tables` is an array of offsets and
    a table; each block from `blocks` is a list of offset columns (indices
    or slices), and candidate a.cols + i of the block is the sum of their
    a-th columns plus table column i.  A block is added into one buffer
    allocated at the first block, the largest (for odd p with a scratch
    half), weighed by _weights, and its winner picked by _lightest_outside.
    With `syndromes`, a function that returns the same two arrays for the
    syndrome rows, called when a block first tests syndromes, a block's
    syndromes are the same sums.  Stops after the first block that leaves
    best_w at `target` or below; returns best_w and the planes of the last
    winner, None if no word was lighter than best_w on entry."""
    add = _plane_adder(f.p)
    offsets, table = tables[0], tables[1][:, None]
    buf = best = syn = None

    def offset(m):   # the sum of the block's offset columns of m
        return reduce(add, [m[:, c] for c in sel]).reshape(len(m), -1)

    def outside():   # syndrome of offset + column != 0: column != -offset
        nonlocal syn
        syn = syn or syndromes()
        neg, out = offset(syn[0]), None
        if f.p != 2:
            neg, out = (f.p - neg) % f.p, marks[:len(syn[1])]
        return np.not_equal(syn[1][:, None], neg[:, :, None],
                            out=out).any(axis=0).reshape(-1)

    for sel in blocks:
        off = offset(offsets)
        shape = (len(table), off.shape[1], table.shape[2])
        size = math.prod(shape)
        if buf is None:
            buf = np.empty(size * (1 if f.p == 2 else 2), table.dtype)
        # for odd p the second half takes the wrap of the sum, then marks
        tmp = marks = None
        if f.p != 2:
            tmp = buf[-size:].reshape(shape)
            marks = buf[-size:].view(bool)[:size].reshape(shape)
        block = add(off[:, :, None], table,
                    out=buf[:size].reshape(shape), tmp=tmp)
        block = block.reshape(len(table), -1)
        hit = _lightest_outside(_weights(f, block, n, marks), best_w,
                                None if syndromes is None else outside)
        if hit is not None:
            best_w, best = hit[0], block[:, hit[1]].copy()
        if best_w <= target:
            break
    return best_w, best


def _enumerate(code: LinearCode, exclude: LinearCode | None):
    """Minimum weight, and the first codeword of that weight in message-index
    order, over the nonzero codewords of `code` outside `exclude` (if given).
    The walk, its test of `exclude` and its stop at the design distance of
    `code` are described in the module docstring."""
    floor = code.design_distance or 1
    f, g = code.field, code.matrix
    q, (k, n) = f.order, g.shape
    # the offsets: the multiples of the rows of G and, for a relative
    # weight, below them those of the syndrome rows S = G.H1^T
    mults = _multiples(f, g)
    m = len(mults)
    if exclude is not None:
        mults = np.concatenate([mults, _multiples(f, _syndromes(
            g, code.pivots, exclude.parity_check().T, f))])
    t = 1   # the low rows: as many as fit in the table, at least one
    while t < k and q ** (t + 1) * mults[:, 0].nbytes <= _TABLE_BYTES:
        t += 1
    words = q ** t * (1 + (q ** (k - t) - 1) // (q - 1))
    if words > _WALK_BUDGET:
        raise SearchCapExceeded(
            f"enumerating {code!r}: the walk visits up to {words} words, "
            f"over the budget {_WALK_BUDGET}")
    add = _plane_adder(f.p)
    table = mults[:, :1]   # column i: the planes of low message i
    for j in range(t):   # the multiples c.g_j, c = 0..q - 1
        table = add(mults.take([0, *range(1 + j, mults.shape[1], k)], axis=1)
                    [:, :, None], table[:, None]).reshape(len(mults), -1)
    # one member per scalar class: the high block 0, then each high message
    # whose top nonzero digit is 1, as the columns c.g_j of its digits
    blocks = ([1 + (d - 1) * k + j for j in range(t, k)
               if (d := h // q ** (j - t) % q)] or [0]
              for h in chain([0], *(range(q ** j, 2 * q ** j)
                                    for j in range(k - t))))
    best_w, best = _walk(f, n, (mults[:m], table[:m]), blocks,
                         None if exclude is None else
                         lambda: (mults[m:], table[m:]), n + 1, floor)
    if best_w < floor:
        raise CodeError(f"a codeword of weight {best_w} refutes the bch_bound "
                        f"lower bound {floor}")
    return best_w, None if best is None else tuple(
        int(x) for x in _word(f, best, n))


def _syndromes(r, pivots, s, f: Field):
    """r.s for a matrix r with r[:, pivots] = I: s[P] + r[:, D].s[D], one
    product over the other columns D."""
    d = np.ones(r.shape[1], dtype=bool)
    d[pivots] = False
    return f.vadd(s[pivots], gflinalg.matmul(r[:, d], s[d], f))


def _systematic(code: LinearCode, perm):
    """rref(code.matrix[:, perm]) and its pivots, in min(k, n - k) pivot
    steps: gflinalg.perp_rref of the parity check H, since the code is the
    null space of H.  The pivots are the first information set in column
    order."""
    h = code.dual()
    return gflinalg.perp_rref(h.matrix, h.pivots, code.field, perm)


@lru_cache(maxsize=None)
def _search_perms(n: int) -> tuple:
    """The _SEARCH_SETS column orders of _witness_search for length n:
    successive shuffles of one list range(n) by random.Random(0), as
    read-only arrays."""
    rng = random.Random(0)
    perm = list(range(n))
    perms = []
    for _ in range(_SEARCH_SETS):
        rng.shuffle(perm)
        perms.append(np.array(perm))
        perms[-1].setflags(write=False)
    return tuple(perms)


def _multiples(f: Field, a: np.ndarray) -> np.ndarray:
    """The word-major digit-plane rows of 0 and of every c.a_j, c != 0:
    column 1 + (c - 1).k + j holds c times row j of a (k rows)."""
    cs = f.vmul(np.arange(1, f.order)[:, None, None], a[None])
    planes = _digit_planes(f, cs.reshape(-1, a.shape[1]))
    planes = planes.reshape(-1, planes.shape[-1])
    return np.concatenate([np.zeros_like(planes[:, :1]), planes], axis=1)


def _witness_search(code: LinearCode, exclude: LinearCode | None,
                    target: int):
    """Lee-Brickell search with p <= 2 (Lee & Brickell 1988).

    Each of _SEARCH_SETS information sets comes from one column order of
    _search_perms and the systematic generator R of _systematic, one rref
    of the smaller of G and H.  Every word R_a + c.R_j (c in GF(q), j any
    row) is a candidate.  Each set is one _walk: a block is a step of rows
    R_a as offsets against the table _multiples(R) of 0 and every c.R_j,
    and candidate a.cols + t of a set is R_a plus table column t.  The
    syndrome of candidate R_a + c.R_j is the same sum over _multiples(s),
    with s = _syndromes(R, J, H1^T[perm]) for the information set J and the
    parity check H1 of `exclude`: one product per set, made when the set
    first has a block to test.  Blocks are sized for n + (n - k1) digits a
    candidate, and the search stops after the first block that
    leaves its weight at `target`, so that partition decides which word a
    stop returns.  Returns (weight, word), the word in the code's own
    coordinates.  Rows whose int64 digits would take more than
    _SEARCH_ROWS_BUDGET bytes raise SearchCapExceeded before any set."""
    f, n, k = code.field, code.n, code.k
    h1 = None if exclude is None else exclude.parity_check().T
    # the budget and the block size count codeword and syndrome digits
    widths = (n,) if h1 is None else (n, h1.shape[1])
    need = (f.order - 1) * k * f.e * sum(widths) * 8
    if need > _SEARCH_ROWS_BUDGET:
        raise SearchCapExceeded(
            f"witness search in {code!r}: the candidate rows take {need} "
            f"bytes, over the budget {_SEARCH_ROWS_BUDGET}")
    row_bytes = sum(_digit_planes(f, np.zeros(w, dtype=np.int64)).nbytes
                    for w in widths)
    best_w, best = n + 1, None
    for perm in _search_perms(n):
        r, piv = _systematic(code, perm)
        mults = _multiples(f, r)   # R_a is column 1 + a
        step = max(1, _SEARCH_BYTES // (row_bytes * mults.shape[1]))
        best_w, col = _walk(   # the multiples are both offsets and table
            f, n, (mults, mults),
            ([slice(1 + i, 1 + min(i + step, k))] for i in range(0, k, step)),
            None if h1 is None else
            lambda: (_multiples(f, _syndromes(r, piv, h1[perm], f)),) * 2,
            best_w, target)
        if col is not None:   # back to the code's own coordinates
            best = _word(f, col, n)[np.argsort(perm)]
        if best_w <= target:
            break
    return best_w, best


def _min_weight(code: LinearCode, exclude: LinearCode | None,
                cap: int) -> Bound:
    """The minimum weight of `code` (outside `exclude`, if given): exact by
    _enumerate when q^k <= cap.  Otherwise it is found without enumeration,
    as a certified lower bound, met or not by a searched witness.

    The certificate is the design (BCH) distance, or d >= 2 when no
    weight-1 word lies in the code outside `exclude`.  The result is exact
    only when the witness, checked to be a codeword outside `exclude` of
    the stated weight, meets that certificate.  Otherwise it is the
    certificate as a lower bound, or a larger declared distance the witness
    does not refute as kind `declared`, with the witness weight as `upper`.
    A declared distance never makes a result exact."""
    if code.field.order ** code.k <= cap:
        w, cw = _enumerate(code, exclude)
        return Bound(w, "exact", "enumeration", witness=cw)
    # a weight-1 codeword is e_j, and then e_j is a row of the rref matrix
    ones = [r for r in code.matrix if np.count_nonzero(r) == 1
            and (exclude is None or not exclude.contains_word(r))]
    lower, method = (1, "nonzero") if ones else (2, "no_weight_one")
    if code.design_distance and code.design_distance > lower:
        lower, method = code.design_distance, "bch_bound"
    w, word = _witness_search(code, exclude, lower)
    if (np.count_nonzero(word) != w or not code.contains_word(word)
            or (exclude is not None and exclude.contains_word(word))):
        raise CodeError("witness search returned an unchecked word")
    if w < lower:
        raise CodeError(f"a codeword of weight {w} refutes the {method} "
                        f"lower bound {lower}")
    if w == lower:
        return Bound(w, "exact", f"witness_meets_{method}",
                     witness=tuple(int(x) for x in word))
    declared = code.declared_distance
    if declared and lower < declared <= w:
        return Bound(declared, "declared", "declared", upper=w)
    return Bound(lower, "lower_bound", method, upper=w)


def min_distance(code: LinearCode, cap: int = DEFAULT_CAP) -> Bound:
    """Exact minimum distance by full enumeration when q^k <= cap, else the
    witness-search bound of _min_weight."""
    if code.k == 0:
        raise CodeError("minimum distance of the zero code is undefined")
    if code.distance_info is None or not code.distance_info.exact:
        code.distance_info = _min_weight(code, None, cap)
    return code.distance_info


def relative_min_weight(c2: LinearCode, c1: LinearCode,
                        cap: int = DEFAULT_CAP) -> Bound:
    """Minimum weight over codewords of c2 that are not in c1: enumerated
    when q^k2 <= cap, else the witness-search bound of _min_weight."""
    if not c2.contains_code(c1):
        raise PreconditionError("inner code is not contained in the outer code")
    if c1.k >= c2.k:
        raise PreconditionError("relative weight needs proper nesting (k1 < k2)")
    return _min_weight(c2, c1, cap)


def is_mds(code: LinearCode) -> bool:
    """True iff every k-subset of generator columns is nonsingular."""
    n, k = code.n, code.k
    if code.distance_info is not None and code.distance_info.exact:
        return code.distance_info.value == n - k + 1
    if math.comb(n, k) > _MDS_SUBSETS:
        raise SearchCapExceeded(
            f"C({n},{k}) column subsets exceed cap {_MDS_SUBSETS}")
    for cols in combinations(range(n), k):
        sub = code.matrix[:, cols]
        if gflinalg.rank(sub, code.field) < k:
            return False
    return True


def mds_witness(code: LinearCode) -> tuple:
    """A weight-(n-k+1) codeword of an MDS code: the last rref row, which is
    zero on the other k-1 pivots.  Raises CodeError unless it has that
    weight."""
    cw = code.matrix[-1]
    w = int(np.count_nonzero(cw))
    if w != code.n - code.k + 1:
        raise CodeError(f"MDS witness of weight {w} is not a codeword of "
                        f"weight {code.n - code.k + 1}")
    return tuple(int(x) for x in cw)


# -- subfield expansion -------------------------------------------------------

@lru_cache(maxsize=None)
def _coordinates(basis: ExtensionBasis) -> np.ndarray:
    """The coordinates of every extension element x in `basis` a, as a
    (q^m, m) table of subfield elements: x = sum_i Tr(x.b_i).a_i for the
    trace-dual basis b (Lidl & Niederreiter, Finite Fields, ch. 2).  A
    dependent basis has a singular Gram matrix: CodeError."""
    emb = basis.emb
    if len(basis.elements) != emb.m:
        raise CodeError("basis size does not match extension degree")
    dual = np.array(find_dual_basis(basis).elements, dtype=np.int64)
    table = emb.traces[emb.ext.vmul(np.arange(emb.ext.order)[:, None], dual)]
    table.setflags(write=False)
    return table


def _expanded(code: LinearCode, basis: ExtensionBasis, parity: bool,
              provenance: str, declared_distance=None) -> LinearCode:
    """Rows b.r for each generator row r and basis element b, each symbol
    replaced by its coordinates and, with `parity`, their negated sum."""
    if basis.emb.ext != code.field:
        raise CodeError("basis extension field does not match the code's field")
    if parity and not is_mds(code):
        raise PreconditionError("parity-augmented expansion requires an MDS code")
    sub, m = basis.emb.sub, basis.m
    words = code.field.vmul(np.array(basis.elements, dtype=np.int64)[:, None],
                            code.matrix[:, None, :])
    coords = _coordinates(basis)[words]
    if parity:
        total = reduce(sub.vadd, np.moveaxis(coords, -1, 0))
        coords = np.concatenate([coords, sub.vneg(total)[..., None]], axis=-1)
    out = LinearCode(sub, coords.reshape(code.k * m, code.n * coords.shape[-1]),
                     provenance=provenance,
                     declared_distance=declared_distance)
    if out.k != code.k * m:
        raise CodeError("expansion lost rank; basis is not a basis")
    return out


def expand_basis(code: LinearCode, basis: ExtensionBasis) -> LinearCode:
    """Phi_B image: [n,k] over GF(q^m) -> [nm,km] over GF(q)."""
    return _expanded(code, basis, False, f"expand({code.provenance})")


def expand_with_parity(code: LinearCode, basis: ExtensionBasis) -> LinearCode:
    """Phi_B image with an overall parity symbol per coordinate block:
    an MDS [n,k] code over GF(q^m) becomes [(m+1)n, km] over GF(q) with
    declared distance 2(n-k+1)."""
    return _expanded(code, basis, True, f"expand_parity({code.provenance})",
                     2 * (code.n - code.k + 1))
