"""Acceptance gate: one test per criterion, each printing a single
pass/fail line."""

import time

from qct import audit, families, polyalg, quantum
from qct.lincode import min_distance


def report(num, ok, desc):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_1_table1():
    t0 = time.time()
    rep = audit.audit_table("table1")
    pairs = {(r.detail["rebuilt"]["k"], r.detail["rebuilt"]["dz"])
             for r in rep.rows if r.status == "confirmed"}
    expected = {(2, 11), (3, 10), (5, 7), (7, 6), (8, 5), (10, 3)}
    ok = pairs == expected and rep.counts() == {"confirmed": 6} \
        and time.time() - t0 < 60
    report(1, ok, f"Table 1 BCH/all-ones rows 6/6 exact ({pairs})")


def test_criterion_2_table3():
    t0 = time.time()
    dims = {}
    for d1 in (15, 11, 7, 3):
        rec = quantum.lemma_bch1(10, d1, 31)
        dims[d1] = (rec.k, rec.dz.value, rec.dx.value)
    formula_ok = dims == {15: (803, 31, 15), 11: (823, 31, 11),
                          7: (843, 31, 7), 3: (863, 31, 3)}
    fast = time.time() - t0 < 1.0
    desk = quantum.lemma_bch1(6, 3, 7)
    desk_ok = desk.k == 39 and desk.provenance["nesting"] == "verified"
    report(2, formula_ok and fast and desk_ok,
           "Table 3 dims 803/823/843/863 at m=10 (<1s) and m=6 desk-scale "
           "nesting with k=39")


def test_criterion_3_table4():
    t0 = time.time()
    rep = audit.audit_table("table4")
    rows = {r.claim: r for r in rep.rows}
    ok45 = all(rows[c].status == "formula-consistent"
               for c in rows if c.startswith("[[45"))
    ok45 = ok45 and (13, 1) in rows["[[45,24,{6,4}]]_4"].detail["k1_k2"]
    div_ok = rows["[[186,45,{34,16}]]_2"].status == "inconsistent"
    # frozen brute-force oracle outcome: the formula has no (k1,k2) giving
    # [[186,100,{18,6}]]; nearest is (22,2) -> {20,6}
    oracle_ok = rows["[[186,100,{18,6}]]_2"].status == "inconsistent"
    fast = time.time() - t0 < 10
    report(3, ok45 and div_ok and oracle_ok and fast,
           "Table 4: 45-rows 6/6 formula-consistent, 186-row classifications "
           "frozen from the exhaustive search oracle")


def test_criterion_4_rs_examples():
    rec = quantum.rs_direct_sum_aqc(16, 9, 2)
    built_ok = rec.label() == "[[31,14,{7,3}]]_16" \
        and rec.provenance["nesting"] == "verified" \
        and rec.provenance["dual_decomposition"] == "verified"
    rep = audit.audit_table("examples")
    rows = {r.claim: r.status for r in rep.rows}
    flag_ok = rows["[[31,4,{14,2}]]_16"] == "inconsistent" \
        and rows["[[31,22,{4,3}]]_16"] == "inconsistent"
    report(4, built_ok and flag_ok,
           "rs_direct_sum_aqc(16,9,2) = [[31,14,{7,3}]]_16 verified; the two "
           "other inline examples flagged inconsistent")


def test_criterion_5_th_best_iii():
    t0 = time.time()
    simplex, c0 = families.simplex_and_c0(3)
    shape_ok = simplex.params() == (7, 3, 2) and c0.params() == (7, 4, 2) \
        and min_distance(simplex).value == 4 and min_distance(c0).value == 3 \
        and c0.contains_code(simplex) and c0.contains_allones()
    m3 = quantum.th_best_family("simplex", 3)
    m4 = quantum.th_best_family("simplex", 4)
    rec_ok = m3.label() == "[[7,3,{3,2}]]_2" \
        and m3.dz.kind == m3.dx.kind == "exact" \
        and m4.label() == "[[15,4,{7,2}]]_2"
    report(5, shape_ok and rec_ok and time.time() - t0 < 1.0,
           "S_3=[7,3,4] in C_0=[7,4,3] gives [[7,3,{3,2}]]_2; m=4 gives "
           "[[15,4,{7,2}]]_2")


def test_criterion_6_negacyclic_suite():
    t0 = time.time()
    failures = []
    for s in (2, 4, 6):
        code = families.negacyclic_cs(9, 8, s)
        if code.params() != (8, 8 - s // 2, 81):
            failures.append(f"s={s}: wrong parameters")
        if code.distance_info.value != s // 2 + 1:
            failures.append(f"s={s}: wrong distance")
        from qct.lincode import is_mds
        if not is_mds(code):
            failures.append(f"s={s}: not MDS")
        # matrix path
        matrix_ok = code.hermitian_containing
        # defining-set path: containment iff T_s is inside the dual's set
        td = polyalg.hermitian_dual_defining_set(code.defining_set, 9)
        sets_ok = code.defining_set.exponents <= td.exponents
        if matrix_ok != sets_ok:
            failures.append(f"s={s}: dual paths disagree")
        if not matrix_ok:
            failures.append(f"s={s}: C_s does not contain its Hermitian dual")
    ok = not failures and time.time() - t0 < 5
    report(6, ok, "negacyclic q=9 n=8 suite 3/3"
           + ("" if not failures else f" -- {'; '.join(failures)}"))


def test_criterion_7_property_suites():
    import test_properties as props
    for pair in props.PAIRS:
        props.test_phi_euclidean_duality(*pair)
        props.test_phi_hermitian_duality_conjugated_dual_basis(*pair)
    props.test_hermitian_dual_defining_set_equals_matrix_dual()
    props.test_enumeration_equals_naive_oracle()
    report(7, True, "expansion duality (100+100 random codes), defining-set "
                    "vs matrix Hermitian duals (n<=12 over GF(9)), "
                    "enumeration vs naive oracle: zero failures")


def test_criterion_8_preparata_family():
    t0 = time.time()
    code = families.preparata_like_bi(5, 2)
    res = min_distance(code)
    code_ok = code.params() == (31, 21, 2) and res.value == 5 \
        and res.kind == "exact"
    recs = quantum.charpin_family(5, 2)
    rec = recs[0]
    rec_ok = (rec.n, rec.k, rec.dx.value) == (31, 11, 5) \
        and rec.dx.kind == "exact"
    report(8, code_ok and rec_ok and time.time() - t0 < 120,
           "B_2 at m=5 is [31,21,5] exact; charpin_family(5,2) emits "
           "[[31,11,{d_z1,5}]] with d_x=5 exact")
