import re

import numpy as np
import pytest

from qct import families, lincode, quantum
from qct.errors import CodeError, PreconditionError
from qct.galois import build_field
from qct.lincode import Bound, LinearCode, min_distance, relative_min_weight
from qct.quantum import AqcParams

F2 = build_field(2, 1)
F4 = build_field(2, 2)


def hamming():
    return families.bch_narrow_sense(F2, 7, 3)


def exact(d):
    return Bound(d, "exact", "enumeration")


def test_aqcparams_invariants():
    with pytest.raises(CodeError):
        AqcParams(7, 3, exact(2), exact(3), 2)   # dz < dx rejected
    with pytest.raises(CodeError):
        AqcParams(7, 0, exact(3), exact(2), 2)
    rec = AqcParams(7, 3, exact(3), exact(2), 2)
    out = rec.to_json()
    assert out["exact"] == {"dz": "exact", "dx": "exact"}
    assert rec.label() == "[[7,3,{3,2}]]_2"


def test_css_standard_repetition_hamming():
    rep = LinearCode(F2, np.ones((1, 7), dtype=np.int64))
    rec = quantum.css_standard(rep, hamming())
    assert (rec.n, rec.k, rec.dz.value, rec.dx.value, rec.q) == (7, 3, 3, 2, 2)
    assert rec.dz.kind == rec.dx.kind == "exact"


def test_css_standard_requires_proper_nesting():
    c = hamming()
    with pytest.raises(PreconditionError):
        quantum.css_standard(c, c.dual())   # not nested that way
    with pytest.raises(PreconditionError):
        quantum.css_standard(c, c)          # k2 == k1


def test_css_standard_symmetric_case():
    # C1 = C2^perp gives a symmetric dz = dx record
    c2 = hamming()
    rec = quantum.css_standard(c2.dual(), c2)
    assert rec.dz.value == rec.dx.value == 3


def test_css_standard_purity():
    """Pure iff the pair is {d(C2), d(C1perp)}: the Steane code is pure.  In
    C1 = <10000> < C2 = <10000, 01111>, wt(C2 minus C1) = 4 but d(C2) = 1, so
    the pair is degenerate.  Repetition < GF(2)^5 gives (1, 2) = (d(C2),
    d(C1perp)), pure."""
    steane = quantum.css_standard(hamming().dual(), hamming())
    assert steane.label() == "[[7,1,{3,3}]]_2"
    assert steane.purity == "pure"
    c1 = LinearCode(F2, np.array([[1, 0, 0, 0, 0]], dtype=np.int64))
    c2 = LinearCode(F2, np.array([[1, 0, 0, 0, 0], [0, 1, 1, 1, 1]],
                                 dtype=np.int64))
    rec = quantum.css_standard(c1, c2)
    assert rec.label() == "[[5,1,{4,1}]]_2"
    assert rec.purity == "degenerate"
    # C2 = GF(2)^5 has a zero dual, which holds no word to compare
    full = LinearCode(F2, np.eye(5, dtype=np.int64))
    rec = quantum.css_standard(LinearCode(F2, np.ones((1, 5), dtype=np.int64)),
                               full)
    assert rec.label() == "[[5,4,{2,1}]]_2"
    assert rec.purity == "pure"


@pytest.mark.parametrize("d1,purity", [
    (exact(3), "pure"), (exact(4), "pure"), (exact(2), "degenerate"),
    (Bound(3, "lower_bound", "bch_bound", upper=5), "pure"),
    (Bound(2, "lower_bound", "bch_bound", upper=5), "unknown"),
    (Bound(3, "declared", "declared", upper=5), "unknown")])
def test_css_purity_reads_each_side_as_a_bound(monkeypatch, d1, purity):
    """d(C1) against wt(C2 minus C1) = 3 for C1 = Hamming^perp < Hamming; the
    other side, d(C2perp) = 4 against 3, is enumerated and settled."""
    c1, c2 = hamming().dual(), hamming()
    real = quantum.min_distance
    monkeypatch.setattr(quantum, "min_distance",
                        lambda code, cap: d1 if code is c1 else real(code, cap))
    assert quantum.css_standard(c1, c2).purity == purity


def test_only_css_standard_and_allone_compute_purity(monkeypatch):
    """The formula-then-verify pipelines and lemma_bch1 report no purity and
    compute no minimum distance for one; a Charpin record with a non-exact
    relative weight computes none either."""
    def no_distance(*args):
        raise AssertionError("min_distance called")
    monkeypatch.setattr(quantum, "min_distance", no_distance)
    for rec in (quantum.rs_direct_sum_aqc(8, 3, 1),
                quantum.concat_expand_aqc(3, 3, 3, 1),
                quantum.lemma_bch1(5, 5, 7),
                quantum.charpin_family(7, 2)[0]):
        assert rec.purity == "unknown"


def test_css_hermitian_boundary():
    c1 = LinearCode(F4, np.array([[1, 1]], dtype=np.int64))
    c2 = LinearCode(F4, np.eye(2, dtype=np.int64))
    rec = quantum.css_hermitian(c1, c2)
    assert (rec.n, rec.k, rec.q) == (2, 1, 2)
    assert {rec.dz.value, rec.dx.value} == {2, 1}
    assert rec.purity == "pure"


def test_css_hermitian_degenerate_pair():
    """C1 = <(1,a,0), e3> and C2 = <e1, e2> over GF(4): C1^(perp h) =
    <(a^2,1,0)>, so the pair is wt(C2\\C1^(perp h)) = 1 and
    wt(C1\\C2^(perp h)) = 2.  e3 in C2^(perp h) makes d(C1) = 1, so the
    pair is not {d(C2), d(C1)} = {1, 1}."""
    c1 = LinearCode(F4, np.array([[1, 2, 0], [0, 0, 1]], dtype=np.int64))
    c2 = LinearCode(F4, np.eye(3, dtype=np.int64)[:2])
    rec = quantum.css_hermitian(c1, c2)
    assert rec.label() == "[[3,1,{2,1}]]_2"
    assert rec.dz.kind == rec.dx.kind == "exact"
    assert rec.purity == "degenerate"
    assert [w["value"] for w in rec.provenance["raw_pair"]] == [1, 2]


@pytest.mark.parametrize("q,n,s,label", [
    (9, 8, 2, "[[8,6,{2,2}]]_9"), (9, 8, 4, "[[8,4,{3,3}]]_9"),
    (9, 8, 6, "[[8,2,{4,4}]]_9"), (9, 4, 2, "[[4,2,{2,2}]]_9"),
    (5, 4, 2, "[[4,2,{2,2}]]_5"), (13, 6, 2, "[[6,4,{2,2}]]_13"),
    (13, 6, 4, "[[6,2,{3,3}]]_13")])
def test_css_hermitian_negacyclic_records(q, n, s, label):
    """css_hermitian(C_s, C_s) on Hermitian dual-containing negacyclic codes:
    both relative weights exact (the BCH bound carried through conj), and
    pure."""
    c = families.negacyclic_cs(q, n, s)
    rec = quantum.css_hermitian(c, c)
    assert rec.label() == label
    assert rec.dz.kind == rec.dx.kind == "exact"
    assert rec.purity == "pure"


def test_css_hermitian_refusals():
    full = LinearCode(F4, np.eye(3, dtype=np.int64))
    e1 = LinearCode(F4, np.array([[1, 0, 0]], dtype=np.int64))
    e12 = LinearCode(F4, np.eye(3, dtype=np.int64)[:2])
    e3 = LinearCode(F4, np.array([[0, 0, 1]], dtype=np.int64))
    for c1, c2, message in ((full, full, "CSS needs proper nesting"),
                            (e1, e1, "C1^(perp h) is not contained in C2"),
                            (e12, e3, "derived dimension 0 is not positive")):
        with pytest.raises(PreconditionError, match=re.escape(message)):
            quantum.css_hermitian(c1, c2)


def test_css_hermitian_requires_square_field():
    c = hamming()
    with pytest.raises(PreconditionError):
        quantum.css_hermitian(c, c)


def test_allone_aqc():
    rec = quantum.allone_aqc(hamming())
    assert rec.label() == "[[7,3,{3,2}]]_2"
    assert rec.purity == "pure"   # d is exact
    bch = families.bch_narrow_sense(F4, 15, 3)
    rec = quantum.allone_aqc(bch)
    assert rec.label() == "[[15,10,{3,2}]]_4"
    bch = families.bch_narrow_sense(F4, 15, 11)
    rec = quantum.allone_aqc(bch)
    assert rec.label() == "[[15,2,{11,2}]]_4"


def test_allone_rejects_missing_allones():
    simplex, _ = families.simplex_and_c0(3)
    with pytest.raises(PreconditionError):
        quantum.allone_aqc(simplex)


def test_th_best_simplex():
    rec = quantum.th_best_family("simplex", 3)
    assert rec.label() == "[[7,3,{3,2}]]_2"
    rec = quantum.th_best_family("simplex", 4)
    assert rec.label() == "[[15,4,{7,2}]]_2"


def test_th_best_self_dual():
    ext = hamming().extend_parity()
    rec = quantum.th_best_family("self_dual", ext)
    assert rec.label() == "[[8,3,{4,2}]]_2"
    with pytest.raises(PreconditionError):
        quantum.th_best_family("self_dual", hamming())


def test_th_best_bch_pair():
    code = families.bch_narrow_sense(F4, 15, 7)
    full, punct = quantum.th_best_family("bch", code)
    assert full.n == 15 and punct.n == 14
    assert full.k == punct.k == code.k - 1
    assert punct.dz.value == full.dz.value - 1


def test_lemma_bch1_table3_rows():
    for d1, k in ((15, 803), (11, 823), (7, 843), (3, 863)):
        rec = quantum.lemma_bch1(10, d1, 31)
        assert (rec.n, rec.k, rec.dz.value, rec.dx.value) == (1023, k, 31, d1)
        assert rec.dz.kind == "lower_bound"
        bounds = rec.provenance["bounds"]
        assert bounds["dz"]["dual_carlitz_uchiyama_lower"] == 64
        assert bounds["dz"]["singleton_wt_upper"] == 151


def test_lemma_bch1_desk_scale_m6():
    """Both distances of [[63,39,{7,3}]]_2 are exact above the cap: each
    searched witness meets the BCH bound and lies outside C1."""
    rec = quantum.lemma_bch1(6, 3, 7)
    assert (rec.n, rec.k) == (63, 39)
    assert rec.provenance["nesting"] == "verified"
    assert (rec.dz.value, rec.dx.value) == (7, 3)
    assert rec.dz.exact and rec.dx.exact
    b3 = families.bch_narrow_sense(F2, 63, 3)
    b7 = families.bch_narrow_sense(F2, 63, 7)
    for d, outer, inner in ((rec.dz, b7, b3.dual()), (rec.dx, b3, b7.dual())):
        assert d.method == "witness_meets_bch_bound"
        assert sum(1 for x in d.witness if x) == d.value
        assert outer.contains_word(d.witness)
        assert not inner.contains_word(d.witness)


@pytest.mark.parametrize("m,d1,d2", [(4, 3, 3), (5, 5, 5), (5, 5, 7),
                                     (5, 7, 7)])
def test_lemma_bch1_distances_are_relative_weights(m, d1, d2):
    """Where q^k fits the cap, the distances equal the enumerated relative
    weights wt(B(d2) minus B(d1)^perp) and wt(B(d1) minus B(d2)^perp); the
    forced search (cap=1) agrees wherever it is exact."""
    n = 2 ** m - 1
    b1 = families.bch_narrow_sense(F2, n, d1)
    b2 = families.bch_narrow_sense(F2, n, d2)
    want = sorted([relative_min_weight(b2, b1.dual()).value,
                   relative_min_weight(b1, b2.dual()).value])
    rec = quantum.lemma_bch1(m, d1, d2)
    assert rec.dz.exact and rec.dx.exact
    assert [rec.dx.value, rec.dz.value] == want
    searched = quantum.lemma_bch1(m, d1, d2, cap=1)
    for got, full in ((searched.dz, rec.dz), (searched.dx, rec.dx)):
        assert got.method != "enumeration"
        if got.exact:
            assert got.value == full.value
        else:
            assert got.value <= full.value <= got.upper


def test_lemma_bch1_preconditions():
    with pytest.raises(PreconditionError):
        quantum.lemma_bch1(10, 4, 31)    # even delta
    with pytest.raises(PreconditionError):
        quantum.lemma_bch1(10, 31, 15)   # delta1 > delta2


def test_charpin_family_m5():
    recs = quantum.charpin_family(5, 2)
    assert len(recs) == 1   # second family has k = 0 and is not emitted
    rec = recs[0]
    assert (rec.n, rec.k, rec.dx.value) == (31, 11, 5)
    assert rec.dx.kind == "exact"
    assert rec.provenance["nesting"] == "verified"


def test_charpin_family_m7():
    recs = quantum.charpin_family(7, 3)
    assert len(recs) == 2
    assert (recs[0].n, recs[0].k) == (127, 85)
    assert (recs[1].n, recs[1].k) == (127, 14)
    # the second-family containment fails computationally and is reported
    assert recs[1].provenance["nesting"] == "failed"
    # its d_z = m*2^(i-1)+1 is the Singleton weight bound, an upper bound
    assert recs[1].dz.kind == "upper_bound"
    assert recs[1].label() == "[[127,14,{29,5}]]_2"


def test_charpin_family_2_checks_its_dimension(monkeypatch):
    """Family 2 refuses a CSS record whose dimension is not m(2^(i-1) - 2),
    as family 1 does with its own formula.  B(delta) is not inside B_i at
    m = 7, so the nesting check is made to pass, and css_standard reports
    one more than k2 - k1 for family 2 (its C1 is not a dual)."""
    real = quantum.css_standard

    def css_standard(c1, c2, cap):
        if c1.provenance.startswith("dual("):   # family 1, left as it is
            return real(c1, c2, cap)
        return AqcParams(c2.n, c2.k - c1.k + 1, *quantum._declared(5, 5), 2)

    monkeypatch.setattr(LinearCode, "contains_code", lambda self, inner: True)
    monkeypatch.setattr(quantum, "css_standard", css_standard)
    with pytest.raises(CodeError, match="family-2 dimension 15 != formula 14"):
        quantum.charpin_family(7, 3)


def test_rs_direct_sum_aqc():
    rec = quantum.rs_direct_sum_aqc(16, 9, 2)
    assert rec.label() == "[[31,14,{7,3}]]_16"
    assert rec.provenance["nesting"] == "verified"
    assert rec.provenance["dual_decomposition"] == "verified"
    rec = quantum.rs_direct_sum_aqc(4, 2, 1)
    assert (rec.n, rec.k) == (7, 2)
    assert rec.dz.kind == "exact"


def test_formula_pair_in_provenance():
    """The formula pair is recorded on the verified and the declared branch
    of _formula_then_css."""
    for cap, kind in ((lincode.DEFAULT_CAP, "exact"), (1, "declared")):
        rec = quantum.rs_direct_sum_aqc(8, 3, 1, cap)
        assert rec.provenance["formula_pair"] == [5, 2]
        assert rec.dz.kind == kind
        assert ("raw_pair" in rec.provenance) == (kind == "exact")


def test_rs_direct_sum_swap_note():
    rec = quantum.rs_direct_sum_aqc(4, 3, 1)
    assert rec.dz.value >= rec.dx.value
    assert any("swapped" in note for note in rec.provenance.get("notes", []))


def test_concat_expand_aqc_table4():
    rec = quantum.concat_expand_aqc(4, 2, 13, 1)
    assert rec.label() == "[[45,24,{6,4}]]_4"
    rec = quantum.concat_expand_aqc(4, 2, 12, 1)
    assert rec.label() == "[[45,22,{8,4}]]_4"


def test_concat_expand_aqc_length186():
    # the formula puts (22, 2) at [[186,100,{20,6}]], not the published
    # {18,6}; the pipeline reports what the formula yields
    rec = quantum.concat_expand_aqc(2, 5, 22, 2)
    assert rec.label() == "[[186,100,{20,6}]]_2"


def test_quantum_concat_params():
    rec = quantum.quantum_concat_params(4, 2, 13, 1, 7)
    assert (rec.n, rec.k) == (630, 24)
    assert rec.dz.value == rec.dx.value == 28
    assert rec.dz.kind == "lower_bound"
    with pytest.raises(PreconditionError):
        quantum.quantum_concat_params(4, 2, 13, 1, 14)


def test_negacyclic_expand_aqc():
    rec = quantum.negacyclic_expand_aqc(9, 8, 4, 2)
    assert rec.label() == "[[24,8,{14,6}]]_9"
    report = rec.provenance["hypothesis_report"]
    assert report["self_dual_basis_exists"] == "fails"
    rec = quantum.negacyclic_expand_aqc(9, 8, 6, 2)
    assert rec.label() == "[[24,4,{12,8}]]_9"
    assert rec.provenance["hypothesis_report"]["hermitian_dual_containing"] \
        == "holds"
    with pytest.raises(PreconditionError):
        quantum.negacyclic_expand_aqc(9, 8, 8, 2)


def test_bounds():
    assert quantum.bounds("carlitz_uchiyama", m=10, delta=31) == 64
    assert quantum.bounds("singleton_wt", m=10, delta=31) == 151
    assert quantum.bounds("singleton", n=5, k=5) == 1
    assert quantum.bounds("carlitz_uchiyama", m=3, delta=7) == 1
    assert quantum.bounds("singleton_wt", m=3, delta=2) == 1
    with pytest.raises(PreconditionError):
        quantum.bounds("nope")
    for kind, args in [("singleton", {"n": 3, "k": 10}),
                       ("singleton", {"n": 3, "k": 0}),
                       ("singleton_wt", {"m": 7, "delta": -9}),
                       ("singleton_wt", {"m": 3, "delta": 8}),
                       ("carlitz_uchiyama", {"m": 10, "delta": -31}),
                       ("carlitz_uchiyama", {"m": 0, "delta": 2})]:
        with pytest.raises(PreconditionError, match="is outside"):
            quantum.bounds(kind, **args)

    # the largest m still prints: values stay below m * 2^m
    top = quantum.BOUND_MAX_M
    assert len(str(quantum.bounds("carlitz_uchiyama", m=top, delta=5))) == \
        len(str(2 ** (top - 1)))
    assert str(quantum.bounds("singleton_wt", m=top, delta=2 ** top - 1))
    for kind in ("carlitz_uchiyama", "singleton_wt"):
        with pytest.raises(PreconditionError, match="is above"):
            quantum.bounds(kind, m=top + 1, delta=5)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_carlitz_uchiyama_bound_holds_on_bch_duals(m):
    """For every delta from 2 to 2^ceil(m/2) - 1, odd or even (the binary
    B(2t) is B(2t+1)), the enumerated minimum distance of B(delta)^perp
    meets the bound; a vacuous value reads 1."""
    for delta in range(2, 2 ** ((m + 1) // 2)):
        dual = families.bch_narrow_sense(F2, 2 ** m - 1, delta).dual()
        d = min_distance(dual)
        assert d.exact
        assert d.value >= quantum.bounds("carlitz_uchiyama", m=m, delta=delta)
    assert quantum.bounds("carlitz_uchiyama", m=9, delta=31) == 1
    assert quantum.bounds("carlitz_uchiyama", m=4, delta=4) == 4
