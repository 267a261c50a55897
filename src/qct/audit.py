"""Re-derivation audits of the published parameter tables and inline examples.

Each audit rebuilds rows from the corresponding construction and classifies
them as confirmed (fully rebuilt with exact distances), formula-consistent
(parameters match the construction formula but distances are beyond the
enumeration cap), inconsistent (no parameter assignment reproduces the row;
a counterexample-search summary is attached), or unverifiable-at-scale.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from . import families, polyalg, quantum
from .errors import FieldError, QctError
from .galois import build_field
from .lincode import DEFAULT_CAP, min_distance

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
    status: str   # confirmed | formula-consistent | inconsistent | unverifiable-at-scale
    detail: dict = dc_field(default_factory=dict)

    def to_json(self) -> dict:
        return {"claim": self.claim, "status": self.status,
                "detail": self.detail}


@dataclass
class VerificationReport:
    target: str
    rows: list

    def counts(self) -> dict:
        out = {}
        for row in self.rows:
            out[row.status] = out.get(row.status, 0) + 1
        return out

    def to_json(self) -> dict:
        return {"target": self.target, "rows": [r.to_json() for r in self.rows],
                "counts": self.counts()}

    def lines(self):
        yield f"audit {self.target}: " + ", ".join(
            f"{v} {k}" for k, v in sorted(self.counts().items()))
        for row in self.rows:
            yield f"  [{row.status}] {row.claim}"


def _params(rec) -> tuple:
    return (rec.n, rec.k, rec.dz.value, rec.dx.value)


def _settled(rec) -> str:
    """A rebuilt record that matches its row is confirmed only when both
    distances are exact."""
    return ("confirmed" if rec.dz.exact and rec.dx.exact
            else "formula-consistent")


def _map_rows(fn, rows, threads: int = 1):
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, rows))
    return [fn(r) for r in rows]


# -- Table 1: [[15, k', {dz, 2}]]_4 from BCH codes over GF(4) -----------------

def audit_table1(cap: int = DEFAULT_CAP, threads: int = 1) -> VerificationReport:
    f4 = build_field(2, 2)
    derived = {}
    for delta in range(2, 15):
        code = families.bch_narrow_sense(f4, 15, delta)
        if code.k < 2 or 4 ** code.k > cap:
            continue
        rec = quantum.allone_aqc(code, cap)
        if rec.dz.exact:
            derived[rec.k] = rec
    rows = []
    for kprime, dz in TABLE1_ROWS:
        claim = f"[[15,{kprime},{{{dz},2}}]]_4"
        rec = derived.get(kprime)
        if rec is None:
            rows.append(AuditRow(claim, "inconsistent",
                                 {"reason": f"no BCH code yields k'={kprime}"}))
        elif (rec.dz.value, rec.dx.value) == (dz, 2):
            rows.append(AuditRow(claim, "confirmed",
                                 {"rebuilt": rec.to_json()}))
        else:
            rows.append(AuditRow(claim, "inconsistent",
                                 {"rebuilt": rec.to_json()}))
    return VerificationReport("table1", rows)


# -- Table 2: punctured BCH codes over GF(4) ----------------------------------

@lru_cache(maxsize=64)
def _bch_interval_closures(n: int) -> tuple:
    """The distinct GF(4) closures, not containing 0, of the exponent
    intervals mod n that avoid 0, in (width, start) order of first
    appearance.  A q-closed set is a union of cyclotomic cosets, so the
    closure of [b, b + width) is the union of its members' GF(4) cosets,
    each computed once as a bit mask; an interval that wraps contains 0, so
    b runs over 1..n - width.  Cached: every Table 2 row of length n and its
    off-by-one reading filter the same list."""
    coset = [sum(1 << s for s in polyalg.cyclotomic_coset(n, 4, x))
             for x in range(n)]
    span = [0] * n   # span[b]: closure mask of the current interval at b
    out = []
    seen = set()
    for width in range(1, n):
        for b in range(1, n - width + 1):
            span[b] |= coset[b + width - 1]
            if span[b] in seen:
                continue
            seen.add(span[b])
            out.append(polyalg.DefiningSet(
                "cyclic", n, 4,
                frozenset(s for s in range(n) if span[b] >> s & 1)))
    return tuple(out)


def _bch_interval_candidates(n: int, k: int):
    """All BCH defining sets (closures of exponent intervals avoiding 0)
    over GF(4) of length n whose code dimension is k."""
    return [t for t in _bch_interval_closures(n) if len(t.exponents) == n - k]


def _audit_table2_row(row, cap: int) -> AuditRow:
    big_n, big_k, dz = row
    claim = f"[[{big_n},{big_k},{{{dz},2}}]]_4"
    n, k, d = big_n + 1, big_k + 1, dz + 1
    cands = _bch_interval_candidates(n, k)
    if not cands:
        return AuditRow(claim, "inconsistent",
                        {"reason": f"no BCH defining set gives [{n},{k}]_4",
                         **_table2_off_by_one(row, cap)})
    # punctured-code weight dz must sit between the source BCH bound minus
    # one and the punctured Singleton bound n - k
    plausible = [t for t in cands
                 if polyalg.bch_bound(t) - 1 <= dz <= n - k]
    if not plausible:
        spread = sorted({polyalg.bch_bound(t) for t in cands})
        return AuditRow(claim, "inconsistent",
                        {"reason": f"d_z={dz} outside [bch bound - 1, {n - k}] "
                                   f"for every [{n},{k}] BCH code",
                         "bch_bounds_seen": spread,
                         **_table2_off_by_one(row, cap)})
    if 4 ** k > cap:
        return AuditRow(claim, "formula-consistent",
                        {"candidates": len(plausible),
                         "note": f"4^{k} codewords beyond cap"})
    tried = []
    try:
        for t in plausible:
            code = families.cyclic_code_from_defining_set(t, build_field(2, 2))
            rec = quantum.allone_aqc(code.puncture(), cap)
            tried.append(rec.dz.value)
            if _params(rec) == (big_n, big_k, dz, 2) and rec.dz.exact:
                return AuditRow(claim, "confirmed",
                                {"defining_set": t.to_json(),
                                 "rebuilt": rec.to_json()})
    except FieldError:
        return AuditRow(claim, "unverifiable-at-scale",
                        {"reason": "splitting field beyond the size cap",
                         "candidates": len(plausible)})
    return AuditRow(claim, "inconsistent",
                    {"reason": f"no punctured [{n},{k}] BCH code has exact "
                               f"weight {dz}",
                     "exact_distances_seen": sorted(set(tried)),
                     **_table2_off_by_one(row, cap)})


def _table2_off_by_one(row, cap: int) -> dict:
    """Counterexample-search summary: does reading the tabulated dimension as
    the source BCH dimension (one above the lemma's k-1) rescue the row?"""
    big_n, big_k, dz = row
    n, k = big_n + 1, big_k
    cands = [t for t in _bch_interval_candidates(n, k)
             if polyalg.bch_bound(t) - 1 <= dz <= n - k]
    if not cands:
        return {}
    note = (f"reading the dimension as the source [{n},{k}] BCH dimension "
            f"(quantum dimension {k - 1}) fits the formula")
    if 4 ** k > cap:
        return {"off_by_one_reading": note + " (weight beyond cap)"}
    try:
        for t in cands:
            code = families.cyclic_code_from_defining_set(t, build_field(2, 2))
            res = min_distance(code.puncture(), cap)
            if res.exact and res.value == dz:
                return {"off_by_one_reading": note + " and the exact weight"}
    except FieldError:
        return {"off_by_one_reading": note + " (splitting field beyond cap)"}
    return {}


def audit_table2(cap: int = DEFAULT_CAP, threads: int = 1) -> VerificationReport:
    rows = _map_rows(lambda r: _audit_table2_row(r, cap), TABLE2_ROWS, threads)
    return VerificationReport("table2", rows)


# -- Table 3: binary BCH pairs at m = 10 --------------------------------------

def _audit_table3_row(row) -> AuditRow:
    n, k, dz, dx = row
    claim = f"[[{n},{k},{{{dz},{dx}}}]]_2"
    rec = quantum.lemma_bch1(10, dx, dz)
    if _params(rec) != (n, k, dz, dx):
        return AuditRow(claim, "inconsistent", {"rebuilt": rec.to_json()})
    status = _settled(rec)
    return AuditRow(claim, status,
                    {"rebuilt": rec.to_json(),
                     "note": "distances are BCH-bound lower bounds with "
                             "Singleton / Carlitz-Uchiyama cross-checks"})


def audit_table3(cap: int = DEFAULT_CAP, threads: int = 1) -> VerificationReport:
    rows = _map_rows(_audit_table3_row, TABLE3_ROWS, threads)
    return VerificationReport("table3", rows)


# -- Table 4: basis-expanded RS pairs -----------------------------------------

def table4_matches(q: int, m: int, k: int, dpair: set):
    """All (k1, k2) whose expansion formula reproduces dimension k and the
    unordered distance pair, plus the near-misses sharing either fact."""
    big_q = q ** m
    hits, near = [], []
    if k % m:
        return [], near
    for k1 in range(2, big_q):
        for k2 in range(1, k1):
            pair = {2 * (big_q - k1), 2 * (k2 + 1)}
            dim_ok = m * (k1 - k2) == k
            if dim_ok and pair == dpair:
                hits.append((k1, k2))
            elif pair == dpair or (dim_ok and pair & dpair):
                near.append((k1, k2))
    return hits, near


def _audit_table4_row(row) -> AuditRow:
    q, m, n, k, dz, dx = row
    claim = f"[[{n},{k},{{{dz},{dx}}}]]_{q}"
    if n != (m + 1) * (q ** m - 1):
        return AuditRow(claim, "inconsistent",
                        {"reason": f"length {n} != (m+1)(q^m-1)"})
    if k % m:
        return AuditRow(claim, "inconsistent",
                        {"reason": f"dimension {k} not divisible by m={m}"})
    hits, near = table4_matches(q, m, k, {dz, dx})
    if hits:
        return AuditRow(claim, "formula-consistent", {"k1_k2": hits})
    detail = {"reason": "exhaustive (k1,k2) search found no match"}
    if near:
        pairs = sorted(set(near))[:4]
        detail["nearest"] = [
            {"k1_k2": [k1, k2],
             "pair": sorted({2 * (q ** m - k1), 2 * (k2 + 1)}, reverse=True),
             "k": m * (k1 - k2)} for k1, k2 in pairs]
    return AuditRow(claim, "inconsistent", detail)


def audit_table4(cap: int = DEFAULT_CAP, threads: int = 1) -> VerificationReport:
    rows = _map_rows(_audit_table4_row, TABLE4_ROWS, threads)
    return VerificationReport("table4", rows)


# -- inline examples ----------------------------------------------------------

def _audit_rs_example(row, cap: int) -> AuditRow:
    n, k, dz, dx = row
    q = 16
    claim = f"[[{n},{k},{{{dz},{dx}}}]]_{q}"
    if n != 2 * q - 1 or k % 2:
        return AuditRow(claim, "inconsistent",
                        {"reason": "parameters outside the 2(k1-k2) shape"})
    hits = [(k1, k2) for k1 in range(2, q) for k2 in range(1, k1)
            if 2 * (k1 - k2) == k and {q - k1, k2 + 1} == {dz, dx}]
    if not hits:
        return AuditRow(claim, "inconsistent",
                        {"reason": "exhaustive (k1,k2) search found no match"})
    k1, k2 = hits[0]
    rec = quantum.rs_direct_sum_aqc(q, k1, k2, cap)
    ok = (rec.n, rec.k) == (n, k) and {rec.dz.value, rec.dx.value} == {dz, dx}
    if not ok:
        return AuditRow(claim, "inconsistent", {"rebuilt": rec.to_json()})
    status = _settled(rec)
    return AuditRow(claim, status, {"k1_k2": [k1, k2],
                                    "rebuilt": rec.to_json()})


def _audit_bch_example(row) -> AuditRow:
    m, d1, n, k, dz, dx = row
    claim = f"[[{n},{k},{{{dz},{dx}}}]]_2"
    rec = quantum.lemma_bch1(m, d1, dz)
    status = (_settled(rec) if _params(rec) == (n, k, dz, dx)
              else "inconsistent")
    return AuditRow(claim, status, {"rebuilt": rec.to_json()})


def audit_examples(cap: int = DEFAULT_CAP, threads: int = 1) -> VerificationReport:
    rows = _map_rows(lambda r: _audit_rs_example(r, cap), RS_EXAMPLE_ROWS,
                     threads)
    rows += _map_rows(_audit_bch_example, BCH_EXAMPLE_ROWS, threads)
    return VerificationReport("examples", rows)


_AUDITS = {"table1": audit_table1, "table2": audit_table2,
           "table3": audit_table3, "table4": audit_table4,
           "examples": audit_examples}


def audit_table(which: str, cap: int = DEFAULT_CAP,
                threads: int = 1) -> VerificationReport:
    if which not in _AUDITS:
        raise QctError(f"unknown audit target {which!r}; "
                       f"choose from {sorted(_AUDITS)}")
    return _AUDITS[which](cap=cap, threads=threads)
