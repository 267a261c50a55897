import dataclasses
import functools
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct import audit, families, polyalg, quantum
from qct.errors import CodeError, FieldError, QctError
from qct.galois import build_field
from qct.lincode import DEFAULT_CAP, Bound, min_distance


def rows_by_claim(report):
    return {r.claim: r for r in report.rows}


def test_table1_all_confirmed():
    report = audit.audit_table("table1")
    assert report.counts() == {"confirmed": 6}
    claims = {r.claim for r in report.rows}
    assert claims == {"[[15,2,{11,2}]]_4", "[[15,3,{10,2}]]_4",
                      "[[15,5,{7,2}]]_4", "[[15,7,{6,2}]]_4",
                      "[[15,8,{5,2}]]_4", "[[15,10,{3,2}]]_4"}


@functools.lru_cache(maxsize=None)
def closures_by_defining_set_closure(n):
    """The closure list as built before the coset map: one
    defining_set_closure per interval, in (width, start) order."""
    out, seen = [], set()
    for width in range(1, n):
        for b in range(n):
            raw = [(b + j) % n for j in range(width)]
            if 0 in raw:
                continue
            t = polyalg.defining_set_closure(raw, "cyclic", n, 4)
            if 0 in t.exponents or t.exponents in seen:
                continue
            seen.add(t.exponents)
            out.append(t)
    return tuple(out)


def test_interval_closures_match_defining_set_closure():
    lengths = sorted({row[0] + 1 for row in audit.TABLE2_ROWS})
    assert lengths[0] == 15 and lengths[-1] == 65
    for n in lengths:
        closures = closures_by_defining_set_closure(n)
        for size in range(1, n):
            assert audit._bch_interval_closures(n, size) == \
                [t for t in closures if len(t.exponents) == size]


def table2_search_oracle(n, k, dz, cap):
    """The reference Table 2 search: the closures of
    closures_by_defining_set_closure, every fit built and walked, with no
    multiplier classes."""
    claim = (n - 1, k - 1, dz, 2)
    cands = [(t, (n - 1, k - 1, Bound(polyalg.bch_bound(t) - 1, "lower_bound",
                                      "bch_bound", upper=n - k), 2))
             for t in closures_by_defining_set_closure(n)
             if len(t.exponents) == n - k]
    fits = [(t, c) for t, c in cands
            if audit._classify(claim, [c]) != "inconsistent"]
    tried = []

    def rebuilt():
        for t, _ in fits:
            code = families.cyclic_code_from_defining_set(t, build_field(2, 2))
            tried.append((t, quantum.allone_aqc(code.puncture(), cap)))
            yield tried[-1][1]

    try:
        status = audit._classify(claim, rebuilt() if 4 ** k <= cap
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


def table2_row_oracle(row, cap=DEFAULT_CAP):
    big_n, big_k, dz = row
    status, detail = table2_search_oracle(big_n + 1, big_k + 1, dz, cap)
    if status == "inconsistent":
        reading, found = table2_search_oracle(big_n + 1, big_k, dz, cap)
        detail["search"] += found["search"]
        if reading in audit._OFF_BY_ONE:
            detail["off_by_one_reading"] = (
                f"reading the dimension as the source [{big_n + 1},{big_k}] "
                f"BCH dimension (quantum dimension {big_k - 1}) fits the "
                "formula" + audit._OFF_BY_ONE[reading])
    return audit.AuditRow(f"[[{big_n},{big_k},{{{dz},2}}]]_4", status, detail)


def test_table2_matches_the_search_that_walks_every_fit():
    """One walk per multiplier class changes no row: statuses, candidate
    counts, the d_z of every fit tried and the confirming defining set are
    those of the search that builds and walks every fit."""
    want = [table2_row_oracle(row).to_json() for row in audit.TABLE2_ROWS]
    for threads in (1, 2):
        report = audit.audit_table("table2", threads=threads)
        assert [r.to_json() for r in report.rows] == want


# odd n <= 21 whose splitting field over GF(4) fits SIZE_CAP: 19 needs GF(2^18)
MULTIPLIER_LENGTHS = (3, 5, 7, 9, 11, 13, 15, 17, 21)


def random_closed_set(rng, n, q, kmax):
    """A random union of q-cyclotomic cosets mod n leaving 1..kmax
    dimensions."""
    cosets = {polyalg.cyclotomic_coset(n, q, x) for x in range(n)}
    while True:
        t = {s for c in cosets if rng.random() < 0.8 for s in c}
        if n - kmax <= len(t) < n:
            return polyalg.DefiningSet("cyclic", n, q, frozenset(t))


def test_multipliers_keep_the_distance_of_a_cyclic_code_and_its_puncture():
    """For a unit a of Z_n, the codes of T and a.T are permutation-
    equivalent, and so are their punctures: the enumerated minimum
    distances agree.  Table 2's search walks one T per class on this.  A
    cyclic code with d >= 2 punctures to d - 1."""
    rng = random.Random(26)
    pairs = 0
    for q, kmax in ((2, 12), (4, 6)):
        field = build_field(2, q.bit_length() - 1)
        for n in MULTIPLIER_LENGTHS:
            for _ in range(16):
                t = random_closed_set(rng, n, q, kmax)
                images = {frozenset(a * s % n for s in t.exponents)
                          for a in range(1, n) if math.gcd(a, n) == 1}
                dists = set()
                for exps in images:
                    code = families.cyclic_code_from_defining_set(
                        polyalg.DefiningSet("cyclic", n, q, exps), field)
                    dists.add((min_distance(code).value,
                               min_distance(code.puncture()).value))
                assert len(dists) == 1, (q, t.sorted_exponents, dists)
                # the puncture certificate: d - 1, from a shifted minimum word
                ((d, d_punct),) = dists
                assert d_punct == d - 1 or d == 1
                pairs += len(images) - 1
    assert pairs >= 200


def test_reused_class_record_must_meet_its_own_bch_bound(monkeypatch):
    """[15,10]_4 has six fits in two multiplier classes, so the search walks
    twice.  A walked record whose d_z is below the bch bound - 1 of a later
    fit in its class refutes that bound, as the skipped walk would have."""
    allone_aqc, walks = quantum.allone_aqc, []

    def counted(code, cap):
        walks.append(allone_aqc(code, cap))
        return walks[-1]

    monkeypatch.setattr(quantum, "allone_aqc", counted)
    _, detail = audit._table2_search(15, 10, 4, DEFAULT_CAP)
    assert len(detail["search"][0]["tried"]) == 6 and len(walks) == 2

    def first_at_weight_one(code, cap):
        rec = counted(code, cap)
        if len(walks) == 1:
            rec.dz = Bound(1, "exact", "enumeration")
        return rec

    walks.clear()
    monkeypatch.setattr(quantum, "allone_aqc", first_at_weight_one)
    with pytest.raises(CodeError, match="refutes the bch_bound"):
        audit._table2_search(15, 10, 4, DEFAULT_CAP)


def test_table2_classification():
    report = audit.audit_table("table2")
    assert len(report.rows) == 36
    rows = rows_by_claim(report)
    assert rows["[[14,6,{6,2}]]_4"].status == "confirmed"
    # most rows only fit when the tabulated dimension is read as the source
    # BCH dimension; the auditor reports them inconsistent with that finding
    assert rows["[[30,21,{4,2}]]_4"].status == "inconsistent"
    assert "off_by_one_reading" in rows["[[30,21,{4,2}]]_4"].detail
    rescued = sum(1 for r in report.rows
                  if "off_by_one_reading" in r.detail)
    assert rescued >= 25


def test_table3_formula_consistent():
    report = audit.audit_table("table3")
    assert report.counts() == {"formula-consistent": 4}
    dims = sorted(r.detail["rebuilt"]["k"] for r in report.rows)
    assert dims == [803, 823, 843, 863]


def test_table4_classification():
    report = audit.audit_table("table4")
    rows = rows_by_claim(report)
    length45 = {c: r for c, r in rows.items() if c.startswith("[[45")}
    assert len(length45) == 6
    assert all(r.status == "formula-consistent" for r in length45.values())
    assert rows["[[45,24,{6,4}]]_4"].detail["k1_k2"] == [(13, 1), (14, 2)]
    assert rows["[[186,45,{34,16}]]_2"].status == "inconsistent"
    assert "no match" in rows["[[186,45,{34,16}]]_2"].detail["reason"]
    # frozen brute-force outcome: no (k1,k2) reproduces {18,6} at k=100
    assert rows["[[186,100,{18,6}]]_2"].status == "inconsistent"
    near = rows["[[186,100,{18,6}]]_2"].detail["nearest"]
    assert {"k1_k2": [22, 2], "pair": [20, 6], "k": 100} in near
    for claim in ("[[186,150,{4,2}]]_2", "[[186,110,{12,10}]]_2",
                  "[[186,80,{24,10}]]_2", "[[186,40,{44,6}]]_2"):
        assert rows[claim].status == "formula-consistent"


def test_examples_classification():
    report = audit.audit_table("examples")
    rows = rows_by_claim(report)
    assert rows["[[31,14,{7,3}]]_16"].status == "formula-consistent"
    assert rows["[[31,14,{7,3}]]_16"].detail["k1_k2"] == [9, 2]
    assert rows["[[31,4,{14,2}]]_16"].status == "inconsistent"
    assert rows["[[31,22,{4,3}]]_16"].status == "inconsistent"
    assert rows["[[511,304,{31,17}]]_2"].status == "formula-consistent"
    assert rows["[[255,183,{15,5}]]_2"].status == "formula-consistent"


def test_bch_examples_with_exact_distances_are_confirmed(monkeypatch):
    """Example rows follow Table 3's rule: a rebuilt record that matches
    its row with both distances exact confirms it."""
    lemma_bch1 = quantum.lemma_bch1

    def exact_lemma(*args):
        rec = lemma_bch1(*args)
        return dataclasses.replace(
            rec, dz=Bound(rec.dz.value, "exact", "enumeration"),
            dx=Bound(rec.dx.value, "exact", "enumeration"))

    monkeypatch.setattr(quantum, "lemma_bch1", exact_lemma)
    rows = rows_by_claim(audit.audit_table("examples"))
    assert rows["[[511,304,{31,17}]]_2"].status == "confirmed"
    assert rows["[[255,183,{15,5}]]_2"].status == "confirmed"
    assert rows["[[31,14,{7,3}]]_16"].status == "formula-consistent"


@pytest.mark.parametrize("target", ["table3", "examples"])
def test_bch_audits_forward_their_cap(target, monkeypatch):
    """Every lemma_bch1 call of the Table 3 and examples audits receives
    the audit's cap, not the default."""
    lemma_bch1, caps = quantum.lemma_bch1, []

    def spy(m, delta1, delta2, cap=quantum.DEFAULT_CAP):
        caps.append(cap)
        return lemma_bch1(m, delta1, delta2, cap)

    monkeypatch.setattr(quantum, "lemma_bch1", spy)
    audit.audit_table(target, cap=12345)
    assert caps and set(caps) == {12345}


def test_report_json_and_lines():
    report = audit.audit_table("table3")
    out = report.to_json()
    assert out["target"] == "table3" and len(out["rows"]) == 4
    lines = list(report.lines())
    assert lines[0].startswith("audit table3:")
    assert len(lines) == 5


def test_unknown_target():
    with pytest.raises(QctError):
        audit.audit_table("table9")


def test_threaded_matches_serial():
    serial = audit.audit_table("table4", threads=1)
    threaded = audit.audit_table("table4", threads=4)
    assert [r.to_json() for r in serial.rows] == \
        [r.to_json() for r in threaded.rows]


def test_thread_pool_is_imported_only_when_used():
    """concurrent.futures (and the logging it pulls in) stays out of the
    import of qct's entry modules; only a threaded audit loads it."""
    import qct
    src = os.path.dirname(os.path.dirname(qct.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, qct.cli, qct.audit, qct.quantum; "
            "sys.exit('concurrent.futures' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0


# Every audit row's status, frozen; table2 rows add the off-by-one reading's
# outcome.  A change that moves a row edits this table on purpose.
FROZEN_ROWS = """
table1   [[15,2,{11,2}]]_4      confirmed
table1   [[15,3,{10,2}]]_4      confirmed
table1   [[15,5,{7,2}]]_4       confirmed
table1   [[15,7,{6,2}]]_4       confirmed
table1   [[15,8,{5,2}]]_4       confirmed
table1   [[15,10,{3,2}]]_4      confirmed
table2   [[14,6,{6,2}]]_4       confirmed
table2   [[20,9,{6,2}]]_4       inconsistent exact-weight
table2   [[32,8,{10,2}]]_4      inconsistent exact-weight
table2   [[14,9,{4,2}]]_4       inconsistent exact-weight
table2   [[20,12,{4,2}]]_4      inconsistent exact-weight
table2   [[32,18,{7,2}]]_4      inconsistent beyond-cap
table2   [[30,21,{4,2}]]_4      inconsistent beyond-cap
table2   [[30,16,{6,2}]]_4      inconsistent beyond-cap
table2   [[30,11,{10,2}]]_4     inconsistent exact-weight
table2   [[34,8,{6,2}]]_4       inconsistent exact-weight
table2   [[34,17,{4,2}]]_4      formula-consistent
table2   [[34,23,{2,2}]]_4      inconsistent beyond-cap
table2   [[38,27,{2,2}]]_4      inconsistent beyond-cap
table2   [[38,21,{8,2}]]_4      inconsistent beyond-cap
table2   [[38,15,{9,2}]]_4      inconsistent beyond-cap
table2   [[38,9,{12,2}]]_4      inconsistent exact-weight
table2   [[40,11,{19,2}]]_4     inconsistent splitting-field
table2   [[40,21,{8,2}]]_4      inconsistent beyond-cap
table2   [[44,31,{4,2}]]_4      formula-consistent
table2   [[44,26,{6,2}]]_4      formula-consistent
table2   [[44,20,{8,2}]]_4      formula-consistent
table2   [[44,15,{10,2}]]_4     formula-consistent
table2   [[44,9,{12,2}]]_4      inconsistent
table2   [[50,27,{8,2}]]_4      inconsistent beyond-cap
table2   [[50,23,{13,2}]]_4     inconsistent beyond-cap
table2   [[50,19,{16,2}]]_4     inconsistent beyond-cap
table2   [[62,39,{10,2}]]_4     inconsistent beyond-cap
table2   [[62,27,{20,2}]]_4     inconsistent beyond-cap
table2   [[62,11,{30,2}]]_4     inconsistent exact-weight
table2   [[62,8,{41,2}]]_4      inconsistent exact-weight
table2   [[64,9,{38,2}]]_4      inconsistent exact-weight
table2   [[64,11,{12,2}]]_4     inconsistent exact-weight
table2   [[64,17,{12,2}]]_4     inconsistent beyond-cap
table2   [[64,29,{12,2}]]_4     inconsistent beyond-cap
table2   [[64,35,{10,2}]]_4     inconsistent beyond-cap
table2   [[64,47,{5,2}]]_4      inconsistent beyond-cap
table3   [[1023,803,{31,15}]]_2 formula-consistent
table3   [[1023,823,{31,11}]]_2 formula-consistent
table3   [[1023,843,{31,7}]]_2  formula-consistent
table3   [[1023,863,{31,3}]]_2  formula-consistent
table4   [[45,24,{6,4}]]_4      formula-consistent
table4   [[45,24,{8,2}]]_4      formula-consistent
table4   [[45,22,{8,4}]]_4      formula-consistent
table4   [[45,16,{14,4}]]_4     formula-consistent
table4   [[45,10,{20,4}]]_4     formula-consistent
table4   [[45,10,{16,8}]]_4     formula-consistent
table4   [[186,150,{4,2}]]_2    formula-consistent
table4   [[186,110,{12,10}]]_2  formula-consistent
table4   [[186,100,{18,6}]]_2   inconsistent
table4   [[186,80,{24,10}]]_2   formula-consistent
table4   [[186,45,{34,16}]]_2   inconsistent
table4   [[186,40,{44,6}]]_2    formula-consistent
examples [[31,14,{7,3}]]_16     formula-consistent
examples [[31,4,{14,2}]]_16     inconsistent
examples [[31,22,{4,3}]]_16     inconsistent
examples [[511,304,{31,17}]]_2  formula-consistent
examples [[255,183,{15,5}]]_2   formula-consistent
"""
OFF_BY_ONE = {"beyond-cap": " (weight beyond cap)",
              "exact-weight": " and the exact weight",
              "splitting-field": " (splitting field beyond cap)"}


def test_frozen_statuses():
    want = {}
    for line in FROZEN_ROWS.strip().splitlines():
        target, claim, status, *reading = line.split()
        want.setdefault(target, []).append((claim, status, *reading))
    assert sum(map(len, want.values())) == 63
    for target, rows in want.items():
        report = audit.audit_table(target)
        assert [(r.claim, r.status) for r in report.rows] == \
            [row[:2] for row in rows]
        for r, (claim, _, *reading) in zip(report.rows, rows):
            if not reading:
                assert "off_by_one_reading" not in r.detail
                continue
            n, k = (int(x) for x in claim[2:].split(",")[:2])
            assert r.detail["off_by_one_reading"] == (
                f"reading the dimension as the source [{n + 1},{k}] BCH "
                f"dimension (quantum dimension {k - 1}) fits the formula"
                + OFF_BY_ONE[reading[0]])
    readings = [row[2] for row in want["table2"] if len(row) == 3]
    assert {t: readings.count(t) for t in OFF_BY_ONE} == \
        {"beyond-cap": 17, "exact-weight": 11, "splitting-field": 1}
    confirmed = rows_by_claim(audit.audit_table("table2"))["[[14,6,{6,2}]]_4"]
    assert confirmed.detail["defining_set"] == {
        "kind": "cyclic", "n": 15, "q": 4,
        "exponents": [2, 5, 6, 7, 8, 9, 10, 13]}


def test_audit_row_rejects_unknown_status():
    assert audit.AuditRow("[[7,1,{3,3}]]_2", "inconsistent").status
    with pytest.raises(QctError, match="unknown audit status"):
        audit.AuditRow("[[7,1,{3,3}]]_2", "verified")


# -- the status rule ----------------------------------------------------------

VALUES = st.integers(0, 5)
ENTRIES = st.one_of(
    st.none(), VALUES,
    VALUES.map(lambda v: Bound(v, "exact", "enumeration")),
    st.builds(lambda v, extra: Bound(v, "lower_bound", "bch_bound",
                                     upper=None if extra is None
                                     else v + extra),
              VALUES, st.none() | st.integers(0, 3)),
    VALUES.map(lambda v: Bound(v, "upper_bound", "search")),
    VALUES.map(lambda v: Bound(v, "declared", "formula")))
CANDIDATES = st.lists(st.tuples(ENTRIES, ENTRIES, ENTRIES, ENTRIES),
                      max_size=4)


def pins(entry, c) -> bool:
    if isinstance(entry, Bound):
        return entry.kind == "exact" and entry.value == c
    return entry == c


def admits(entry, c) -> bool:
    if entry is None or isinstance(entry, int):
        return entry in (None, c)
    return {"exact": entry.value == c,
            "lower_bound": entry.value <= c and (entry.upper is None
                                                 or c <= entry.upper),
            "upper_bound": c <= entry.value,
            "declared": True}[entry.kind]


def as_lower_bound(entry):
    """An int or exact entry as a lower bound pinned by its upper bound."""
    if isinstance(entry, int) or isinstance(entry, Bound) and entry.exact:
        v = entry if isinstance(entry, int) else entry.value
        return Bound(v, "lower_bound", "bch_bound", upper=v)
    return entry


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.tuples(VALUES, VALUES, VALUES, VALUES), CANDIDATES)
def test_classify_is_the_range_rule(claim, cands):
    """Confirmed only when some candidate is exact and equal on all four
    entries, inconsistent only when no candidate's ranges hold the claim,
    and a lower bound pinned to one value by its upper bound is still not
    an exact value."""
    status = audit._classify(claim, cands)
    pinned = any(all(map(pins, c, claim)) for c in cands)
    held = any(all(map(admits, c, claim)) for c in cands)
    assert status == ("confirmed" if pinned else
                      "formula-consistent" if held else "inconsistent")
    lowered = [tuple(map(as_lower_bound, c)) for c in cands]
    assert audit._classify(claim, lowered) == \
        ("formula-consistent" if pinned or held else "inconsistent")


def test_classify_reads_candidates_up_to_the_first_confirming():
    seen = []

    def cands():
        for c in [(15, 1, None, 2), (15, 1, 7, 2), (15, 1, 7, 2)]:
            seen.append(c)
            yield c

    assert audit._classify((15, 1, 7, 2), cands()) == "confirmed"
    assert len(seen) == 2
    assert audit._classify((15, 1, 7, 2), []) == "inconsistent"
