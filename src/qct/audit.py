"""Re-derivation audits of the published parameter tables and inline examples.

Each audit rebuilds a row's candidates from its construction, and one rule,
`_classify`, gives the status.  Each entry of a candidate (n, k, d_z, d_x)
is a range: an int or exact `Bound` a point, a lower bound [value, upper or
infinity], an upper bound [0, value], a declared or formula value (`None`)
an open range, as it certifies nothing.  A row is confirmed when some
candidate pins all four entries to the claim, inconsistent when none holds
the claim (a counterexample-search summary is attached), formula-consistent
otherwise; unverifiable-at-scale is set for a splitting field beyond the cap.
Each audit takes only the cap and runs its rows in order in the calling
thread.

Table 2's candidates are the interval closures of one size, kept per length
as bit masks grouped by size and built as defining sets only for the size a
search reads.  A search walks one defining set per multiplier class: a fit
whose T is a.T' (a a unit mod n) for a walked T' reuses that record, which
must still meet the fit's own BCH bound, or CodeError is raised.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from . import families, polyalg, quantum
from .errors import CodeError, FieldError, QctError
from .galois import build_field
from .lincode import DEFAULT_CAP, Bound

STATUSES = ("confirmed", "formula-consistent", "inconsistent",
            "unverifiable-at-scale")

# published rows: Table 1 as (k', dz), the rest as (n, k, dz, dx)
TABLE1_ROWS = [(2, 11), (3, 10), (5, 7), (7, 6), (8, 5), (10, 3)]

TABLE2_ROWS = [
    (14, 6, 6), (20, 9, 6), (32, 8, 10),
    (14, 9, 4), (20, 12, 4), (32, 18, 7),
    (30, 21, 4), (30, 16, 6), (30, 11, 10),
    (34, 8, 6), (34, 17, 4), (34, 23, 2),
    (38, 27, 2), (38, 21, 8), (38, 15, 9),
    (38, 9, 12), (40, 11, 19), (40, 21, 8),
    (44, 31, 4), (44, 26, 6), (44, 20, 8),
    (44, 15, 10), (44, 9, 12), (50, 27, 8),
    (50, 23, 13), (50, 19, 16), (62, 39, 10),
    (62, 27, 20), (62, 11, 30), (62, 8, 41),
    (64, 9, 38), (64, 11, 12), (64, 17, 12),
    (64, 29, 12), (64, 35, 10), (64, 47, 5),
]

TABLE3_ROWS = [(1023, 803, 31, 15), (1023, 823, 31, 11),
               (1023, 843, 31, 7), (1023, 863, 31, 3)]

TABLE4_ROWS = [
    (4, 2, 45, 24, 6, 4), (4, 2, 45, 24, 8, 2), (4, 2, 45, 22, 8, 4),
    (4, 2, 45, 16, 14, 4), (4, 2, 45, 10, 20, 4), (4, 2, 45, 10, 16, 8),
    (2, 5, 186, 150, 4, 2), (2, 5, 186, 110, 12, 10),
    (2, 5, 186, 100, 18, 6), (2, 5, 186, 80, 24, 10),
    (2, 5, 186, 45, 34, 16), (2, 5, 186, 40, 44, 6),
]

RS_EXAMPLE_ROWS = [(31, 14, 7, 3), (31, 4, 14, 2), (31, 22, 4, 3)]

BCH_EXAMPLE_ROWS = [(9, 17, 511, 304, 31, 17), (8, 5, 255, 183, 15, 5)]


@dataclass
class AuditRow:
    claim: str
    status: str   # one of STATUSES
    detail: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.status not in STATUSES:
            raise QctError(f"unknown audit status {self.status!r}")

    def to_json(self) -> dict:
        return {"claim": self.claim, "status": self.status,
                "detail": self.detail}


@dataclass
class VerificationReport:
    target: str
    rows: list

    def counts(self) -> dict:
        return dict(Counter(row.status for row in self.rows))

    def to_json(self) -> dict:
        return {"target": self.target, "rows": [r.to_json() for r in self.rows],
                "counts": self.counts()}

    def lines(self):
        yield f"audit {self.target}: " + ", ".join(
            f"{v} {k}" for k, v in sorted(self.counts().items()))
        for row in self.rows:
            yield f"  [{row.status}] {row.claim}"


def _span(entry) -> tuple:
    """(low, high, exact): the range one candidate entry gives."""
    if isinstance(entry, int):
        return entry, entry, True
    if entry is None or entry.kind == "declared":
        return 0, math.inf, False
    if entry.exact:
        return entry.value, entry.value, True
    if entry.kind == "upper_bound":
        return 0, entry.value, False
    high = math.inf if entry.upper is None else entry.upper
    return entry.value, high, False


def _classify(claim: tuple, candidates) -> str:
    """The module docstring's rule for a claim (n, k, d_z, d_x); candidates
    are AqcParams or 4-tuples, read lazily up to the first that confirms."""
    status = "inconsistent"
    for cand in candidates:
        if isinstance(cand, quantum.AqcParams):
            cand = (cand.n, cand.k, cand.dz, cand.dx)
        spans = [_span(e) for e in cand]
        if all(lo <= c <= hi for c, (lo, hi, _) in zip(claim, spans)):
            if all(exact for _, _, exact in spans):
                return "confirmed"
            status = "formula-consistent"
    return status


def _row(q: int, claim: tuple, candidates, detail: dict) -> AuditRow:
    n, k, dz, dx = claim
    return AuditRow(f"[[{n},{k},{{{dz},{dx}}}]]_{q}",
                    _classify(claim, candidates), detail)


# -- Table 1: [[15, k', {dz, 2}]]_4 from BCH codes over GF(4) -----------------

def audit_table1(cap: int = DEFAULT_CAP) -> VerificationReport:
    f4 = build_field(2, 2)
    codes = [families.bch_narrow_sense(f4, 15, d) for d in range(2, 15)]
    # the cap is allone_aqc's: above it, min_distance bounds by search
    derived = {c.k - 1: quantum.allone_aqc(c, cap) for c in codes
               if c.k - 1 in dict(TABLE1_ROWS)}
    rows = []
    for kprime, dz in TABLE1_ROWS:
        rec = derived.get(kprime)
        rows.append(_row(4, (15, kprime, dz, 2), [rec] if rec else [],
                         {"rebuilt": rec.to_json()} if rec else
                         {"reason": f"no BCH code yields k'={kprime}"}))
    return VerificationReport("table1", rows)


# -- Table 2: punctured BCH codes over GF(4) ----------------------------------

@lru_cache(maxsize=64)
def _interval_masks(n: int) -> dict:
    """The distinct GF(4) closures, not containing 0, of the exponent
    intervals mod n that avoid 0, as bit masks grouped by size, each group
    in (width, start) order of first appearance.  A q-closed set is a union
    of cyclotomic cosets, so the closure of [b, b + width) is the union of
    its members' GF(4) cosets, each computed once as a mask; an interval
    that wraps contains 0, so b runs over 1..n - width.  Cached: every
    Table 2 row of length n and its off-by-one reading search it."""
    coset = [sum(1 << s for s in polyalg.cyclotomic_coset(n, 4, x))
             for x in range(n)]
    span = [0] * n   # span[b]: closure mask of the current interval at b
    by_size = {}
    seen = set()
    for width in range(1, n):
        for b in range(1, n - width + 1):
            span[b] |= coset[b + width - 1]
            if span[b] in seen:
                continue
            seen.add(span[b])
            by_size.setdefault(bin(span[b]).count("1"), []).append(span[b])
    return {size: tuple(masks) for size, masks in by_size.items()}


def _bch_interval_closures(n: int, size: int) -> list:
    """The interval closures mod n of `_interval_masks` with `size`
    exponents, as defining sets, in first-appearance order.  Only these are
    built: a search for [n, k] reads the closures of size n - k alone."""
    return [polyalg.DefiningSet("cyclic", n, 4,
                                frozenset(s for s in range(n) if mask >> s & 1))
            for mask in _interval_masks(n).get(size, ())]


_OFF_BY_ONE = {"formula-consistent": " (weight beyond cap)",
               "confirmed": " and the exact weight",
               "unverifiable-at-scale": " (splitting field beyond cap)"}


def _table2_search(n: int, k: int, dz: int, cap: int):
    """Status and detail of [[n-1, k-1, {dz, 2}]]_4, the all-one record of a
    punctured [n, k]_4 BCH code.  The candidates are the interval closures
    of size n - k.  Before a candidate is built, its d_z lies in
    [bch bound - 1, n - k]: its source's BCH bound less the punctured
    coordinate, and Singleton.  Candidates whose range holds the claim are
    read in first-appearance order when 4^k <= cap, up to one that confirms.

    One walk per multiplier class: for a unit a of Z_n, the codes of T and
    a.T are permutation-equivalent (coordinate i to a.i), and so are their
    punctures, since every puncture of a cyclic code is equivalent to the
    last.  A fit whose T is a.T' for an already walked T' is neither built
    nor walked; it takes T''s record, which cannot confirm, as that same
    (n, k, d_z, d_x) has already failed to.  Its d_z must still meet its own
    bch bound - 1, or CodeError is raised, as the walk itself would."""
    claim = (n - 1, k - 1, dz, 2)
    cands = [(t, (n - 1, k - 1, Bound(polyalg.bch_bound(t) - 1, "lower_bound",
                                      "bch_bound", upper=n - k), 2))
             for t in _bch_interval_closures(n, n - k)]
    fits = [(t, c) for t, c in cands
            if _classify(claim, [c]) != "inconsistent"]
    tried = []
    walked = {}   # a.T for every unit a of Z_n -> the record walked for T

    def rebuilt():
        # one unit per coset of <4>: T is 4-closed, so a.T = 4a.T
        units = {polyalg.cyclotomic_coset(n, 4, a)[0]
                 for a in range(1, n) if math.gcd(a, n) == 1}
        for t, (_, _, lower, _) in fits:
            rec = walked.get(t.exponents)
            if rec is None:
                code = families.cyclic_code_from_defining_set(
                    t, build_field(2, 2))
                rec = quantum.allone_aqc(code.puncture(), cap)
                for a in units:
                    walked[frozenset(a * s % n for s in t.exponents)] = rec
            elif rec.dz.value < lower.value:
                raise CodeError(f"a codeword of weight {rec.dz.value} refutes "
                                f"the bch_bound lower bound {lower.value}")
            tried.append((t, rec))
            yield rec

    try:
        status = _classify(claim, rebuilt() if 4 ** k <= cap
                           else [c for _, c in fits])
    except FieldError:
        status = "unverifiable-at-scale"
    detail = {"search": [{
        "source": [n, k], "candidates": len(cands), "fits": len(fits),
        "dz_ranges": sorted({(c[2].value, n - k) for _, c in cands}),
        "tried": [{"exponents": t.sorted_exponents, "dz": rec.dz.value}
                  for t, rec in tried]}]}
    if status == "confirmed":
        detail.update(defining_set=tried[-1][0].to_json(),
                      rebuilt=tried[-1][1].to_json())
    elif status == "formula-consistent":
        detail["note"] = f"4^{k} codewords beyond cap"
    else:
        detail["reason"] = (
            "splitting field beyond the size cap"
            if status == "unverifiable-at-scale" else
            f"no BCH defining set gives [{n},{k}]_4" if not cands else
            f"d_z={dz} outside [bch bound - 1, {n - k}] for every [{n},{k}] "
            "BCH code" if not fits else
            f"no punctured [{n},{k}] BCH code has exact weight {dz}")
    return status, detail


def _audit_table2_row(row, cap: int) -> AuditRow:
    big_n, big_k, dz = row
    status, detail = _table2_search(big_n + 1, big_k + 1, dz, cap)
    if status == "inconsistent":
        # counterexample search: does reading the tabulated dimension as
        # the source BCH dimension (one above the lemma's k - 1) rescue it?
        reading, found = _table2_search(big_n + 1, big_k, dz, cap)
        detail["search"] += found["search"]
        if reading in _OFF_BY_ONE:
            detail["off_by_one_reading"] = (
                f"reading the dimension as the source [{big_n + 1},{big_k}] "
                f"BCH dimension (quantum dimension {big_k - 1}) fits the "
                "formula" + _OFF_BY_ONE[reading])
    return AuditRow(f"[[{big_n},{big_k},{{{dz},2}}]]_4", status, detail)


def audit_table2(cap: int = DEFAULT_CAP) -> VerificationReport:
    return VerificationReport("table2", [
        _audit_table2_row(r, cap) for r in TABLE2_ROWS])


# -- Table 3 and the BCH examples: binary BCH pairs ---------------------------

def _audit_bch_pair(m: int, delta1: int, row, detail: dict,
                    cap: int) -> AuditRow:
    rec = quantum.lemma_bch1(m, delta1, row[2], cap)
    return _row(2, row, [rec], {"rebuilt": rec.to_json(), **detail})


def audit_table3(cap: int = DEFAULT_CAP) -> VerificationReport:
    note = {"note": "distances are BCH-bound lower bounds with "
                    "Singleton / Carlitz-Uchiyama cross-checks"}
    return VerificationReport("table3", [
        _audit_bch_pair(10, r[3], r, note, cap) for r in TABLE3_ROWS])


# -- Table 4: basis-expanded RS pairs -----------------------------------------

def table4_matches(q: int, m: int, k: int, dpair: set):
    """All (k1, k2) whose concat_expand_formula reproduces dimension k and
    the unordered distance pair, plus the near-misses sharing either fact."""
    hits, near = [], []
    for k1 in range(2, q ** m):
        for k2 in range(1, k1):
            _, k_formula, da, db = quantum.concat_expand_formula(q, m, k1, k2)
            pair = {da, db}
            dim_ok = k_formula == k
            if dim_ok and pair == dpair:
                hits.append((k1, k2))
            elif pair == dpair or (dim_ok and pair & dpair):
                near.append((k1, k2))
    return hits, near


def _audit_table4_row(row) -> AuditRow:
    q, m, n, k, dz, dx = row
    if n != quantum.concat_expand_formula(q, m, 0, 0)[0]:
        return _row(q, row[2:], [], {"reason": f"length {n} != (m+1)(q^m-1)"})
    if k % m:
        return _row(q, row[2:], [], {
            "reason": f"dimension {k} not divisible by m={m}"})
    hits, near = table4_matches(q, m, k, {dz, dx})
    if hits:
        return _row(q, row[2:], [(n, k, None, None) for _ in hits],
                    {"k1_k2": hits})
    detail = {"reason": "exhaustive (k1,k2) search found no match"}
    if near:
        detail["nearest"] = [
            {"k1_k2": [k1, k2], "pair": sorted(set(f[2:]), reverse=True),
             "k": f[1]} for k1, k2 in sorted(set(near))[:4]
            for f in [quantum.concat_expand_formula(q, m, k1, k2)]]
    return _row(q, row[2:], [], detail)


def audit_table4(cap: int = DEFAULT_CAP) -> VerificationReport:
    return VerificationReport("table4", [
        _audit_table4_row(r) for r in TABLE4_ROWS])


# -- inline examples ----------------------------------------------------------

def _audit_rs_example(row, cap: int) -> AuditRow:
    n, k, dz, dx = row
    q = 16
    if n != quantum.rs_direct_sum_formula(q, 0, 0)[0] or k % 2:
        return _row(q, row, [], {
            "reason": "parameters outside the 2(k1-k2) shape"})
    claims = {(k, dz, dx), (k, dx, dz)}   # the distance pair is unordered
    hits = [(k1, k2) for k1 in range(2, q) for k2 in range(1, k1)
            if quantum.rs_direct_sum_formula(q, k1, k2)[1:] in claims]
    if not hits:
        return _row(q, row, [], {
            "reason": "exhaustive (k1,k2) search found no match"})
    k1, k2 = hits[0]
    rec = quantum.rs_direct_sum_aqc(q, k1, k2, cap)
    return _row(q, row, [rec], {"k1_k2": [k1, k2], "rebuilt": rec.to_json()})


def audit_examples(cap: int = DEFAULT_CAP) -> VerificationReport:
    rows = [_audit_rs_example(r, cap) for r in RS_EXAMPLE_ROWS]
    rows += [_audit_bch_pair(r[0], r[1], r[2:], {}, cap)
             for r in BCH_EXAMPLE_ROWS]
    return VerificationReport("examples", rows)


_AUDITS = {"table1": audit_table1, "table2": audit_table2,
           "table3": audit_table3, "table4": audit_table4,
           "examples": audit_examples}


def audit_table(which: str, cap: int = DEFAULT_CAP,
                threads: int = 1) -> VerificationReport:
    """The audit named `which`.  `threads` is accepted and ignored."""
    if which not in _AUDITS:
        raise QctError(f"unknown audit target {which!r}; "
                       f"choose from {sorted(_AUDITS)}")
    return _AUDITS[which](cap=cap)
