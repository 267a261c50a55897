import dataclasses

import pytest

from qct import audit, polyalg, quantum
from qct.errors import QctError
from qct.lincode import Bound


def rows_by_claim(report):
    return {r.claim: r for r in report.rows}


def test_table1_all_confirmed():
    report = audit.audit_table("table1")
    assert report.counts() == {"confirmed": 6}
    claims = {r.claim for r in report.rows}
    assert claims == {"[[15,2,{11,2}]]_4", "[[15,3,{10,2}]]_4",
                      "[[15,5,{7,2}]]_4", "[[15,7,{6,2}]]_4",
                      "[[15,8,{5,2}]]_4", "[[15,10,{3,2}]]_4"}


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
    return out


def test_interval_closures_match_defining_set_closure():
    lengths = sorted({row[0] + 1 for row in audit.TABLE2_ROWS})
    assert lengths[0] == 15 and lengths[-1] == 65
    for n in lengths:
        assert list(audit._bch_interval_closures(n)) == \
            closures_by_defining_set_closure(n)


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
