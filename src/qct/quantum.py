"""CSS-type derivations of asymmetric quantum code parameters, the theorem
pipelines built on them, and bound calculators.

All emitted records are normalized so dz >= dx; the raw unordered pair is kept
in the provenance together with every verification the pipeline performed.

Every matrix-level CSS pair of C1 < C2 comes from _css_pair, a Hermitian one
as the css_standard record of C1^(perp h) < C2.  Only css_standard and
allone_aqc compute a purity, by the paper's rule (pure iff the pair is
{d(C2), d(C1perp)}); other records read "unknown".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

from . import families, lincode
from .errors import CodeError, PreconditionError
from .galois import (build_field, field_from_q, get_embedding, prime_power,
                     self_dual_basis_exists, standard_basis)
from .lincode import (DEFAULT_CAP, Bound, LinearCode, min_distance,
                      relative_min_weight)

# codes longer than this are handled at formula/coset level only
MATRIX_LIMIT = 127

# bounds() refuses a larger m: its values stay below m * 2^m, at most 4,219
# digits, which Python converts to a string within its default limit of
# 4,300 digits (sys.int_info.default_max_str_digits), so each one prints
BOUND_MAX_M = 14_000


@dataclass
class AqcParams:
    """An [[n, k, {dz, dx}]]_q record with purity and construction provenance."""

    n: int
    k: int
    dz: Bound
    dx: Bound
    q: int
    purity: str = "unknown"          # pure | degenerate | unknown
    provenance: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1 or not 0 < self.k <= self.n:
            raise CodeError(f"invalid quantum parameters n={self.n}, k={self.k}")
        if self.dz.value < self.dx.value:
            raise CodeError("AqcParams must be normalized with dz >= dx")

    def label(self) -> str:
        return (f"[[{self.n},{self.k},{{{self.dz.value},{self.dx.value}}}]]"
                f"_{self.q}")

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "dz": self.dz.value,
                "dx": self.dx.value, "q": self.q, "purity": self.purity,
                "exact": {"dz": self.dz.kind, "dx": self.dx.kind},
                "provenance": self.provenance}


def _normalize(a: Bound, b: Bound, prov):
    """Order a distance pair as (dz, dx) = (max, min), noting a swap."""
    if a.value >= b.value:
        return a, b
    prov.setdefault("notes", []).append("swapped: raw pair had d_z < d_x")
    return b, a


def _declared(*values):
    return [Bound(v, "declared", "formula") for v in values]


def _css_pair(c1: LinearCode, c2: LinearCode, cap: int):
    """(wt(C2\\C1), wt(C1perp\\C2perp)) for C1 < C2 over one field and
    length, with k2 > k1 >= 1."""
    if c1.field != c2.field or c1.n != c2.n:
        raise PreconditionError("CSS input codes must share field and length")
    if not c2.contains_code(c1):
        raise PreconditionError("C1 is not contained in C2")
    if c1.k < 1 or c2.k <= c1.k:
        raise PreconditionError("CSS needs proper nesting with k2 > k1 >= 1")
    return (relative_min_weight(c2, c1, cap),
            relative_min_weight(c1.dual(), c2.dual(), cap))


def _css_purity(c1: LinearCode, c2: LinearCode, wa: Bound, wb: Bound,
                cap: int) -> str:
    """Pure iff (wa, wb) = (d(C2), d(C1perp)).  As C1 < C2, d(C2) =
    min(wt(C2\\C1), d(C1)), so that holds iff d(C1) >= wa and
    d(C2perp) >= wb (a zero C2perp has no words).  Decided only when wa and
    wb are exact: an exact or lower-bound distance at or above its weight
    settles a side, an exact one below it makes the pair degenerate."""
    if not (wa.exact and wb.exact):
        return "unknown"
    purity = "pure"
    for code, w in ((c1, wa), (c2.dual(), wb)):
        if code.k == 0:
            continue
        d = min_distance(code, cap)
        if d.exact and d.value < w.value:
            return "degenerate"
        if d.kind not in ("exact", "lower_bound") or d.value < w.value:
            purity = "unknown"
    return purity


def css_standard(c1: LinearCode, c2: LinearCode,
                 cap: int = DEFAULT_CAP) -> AqcParams:
    """Standard CSS pair C1 < C2 over GF(q):
    [[n, k2-k1, {max, min} of wt(C2\\C1) and wt(C1perp\\C2perp)]]_q."""
    wa, wb = _css_pair(c1, c2, cap)
    prov = {"construction": "css_standard",
            "inputs": [repr(c1), repr(c2)],
            "raw_pair": [wa.to_json(), wb.to_json()]}
    dz, dx = _normalize(wa, wb, prov)
    return AqcParams(c1.n, c2.k - c1.k, dz, dx, c1.field.order,
                     purity=_css_purity(c1, c2, wa, wb, cap), provenance=prov)


def css_hermitian(c1: LinearCode, c2: LinearCode,
                  cap: int = DEFAULT_CAP) -> AqcParams:
    """Hermitian CSS pair over GF(q^2) with C1^(perp h) < C2: the css_standard
    record of C1^(perp h) < C2 with q in its label.  The dual of C1^(perp h)
    is conj(C1), of C1's weights, so the pair is {wt(C2\\C1^(perp h)),
    wt(C1\\C2^(perp h))}, k = k1+k2-n, and pure iff it is {d(C2), d(C1)}."""
    if c1.field != c2.field or c1.n != c2.n:
        raise PreconditionError("CSS input codes must share field and length")
    if not c1.field.is_square_order:
        raise PreconditionError(
            f"GF({c1.field.order}) is not a square extension")
    h1 = c1.hermitian_dual()
    if not c2.contains_code(h1):
        raise PreconditionError("C1^(perp h) is not contained in C2")
    k = c1.k + c2.k - c1.n
    if k <= 0:
        raise PreconditionError(f"derived dimension {k} is not positive")
    rec = css_standard(h1, c2, cap)
    rec.q = c1.field.conj_base
    rec.provenance.update(construction="css_hermitian",
                          inputs=[repr(c1), repr(c2)])
    rec.provenance.setdefault("notes", []).insert(
        0, "k reads k_2 - dim C_1^(perp h) with dim C_1^(perp h) = n - k_1")
    return rec


def allone_aqc(code: LinearCode, cap: int = DEFAULT_CAP) -> AqcParams:
    """[[n, k-1, {d, 2}]]_q from a code containing the all-one codeword."""
    if not code.contains_allones():
        raise PreconditionError("code does not contain the all-one codeword")
    if code.k < 2:
        raise PreconditionError("all-one construction needs k >= 2")
    res = min_distance(code, cap)
    prov = {"construction": "allone", "inputs": [repr(code)],
            "code_distance": res.to_json()}
    dz, dx = _normalize(res, Bound(2, "exact", "allone"), prov)
    # C1 = <1> has d = n, and no word of C^perp has weight 1 since 1 is in C,
    # so the pair is (d(C), d(C1perp)) whenever d is known
    return AqcParams(code.n, code.k - 1, dz, dx, code.field.order,
                     purity="pure" if res.exact else "unknown", provenance=prov)


def th_best_family(variant, arg, cap: int = DEFAULT_CAP):
    """The three all-one-codeword families.

    variant "bch": narrow-sense BCH code -> (full, punctured) record pair.
    variant "self_dual": binary self-dual code -> [[n, n/2-1, {d,2}]]_2.
    variant "simplex": integer m -> [[2^m-1, m, {2^(m-1)-1, 2}]]_2 via the
    simplex-in-C_0 pair.
    """
    if variant == "bch":
        code = arg
        full = allone_aqc(code, cap)
        punct = code.puncture()
        if not punct.contains_allones() or punct.k != code.k:
            raise CodeError("punctured BCH code lost all-ones or rank")
        if code.distance_info and not code.distance_info.exact:
            punct.declared_distance = max(1, code.distance_info.value - 1)
        p = allone_aqc(punct, cap)
        return full, p
    if variant == "self_dual":
        code = arg
        if code.field.order != 2:
            raise PreconditionError("self-dual variant needs a binary code")
        if code != code.dual():
            raise PreconditionError("input code is not self-dual")
        return allone_aqc(code, cap)
    if variant == "simplex":
        m = arg
        _, c0 = families.simplex_and_c0(m)
        rec = allone_aqc(c0, cap)
        rec.provenance["construction"] = "th_best_simplex"
        rec.provenance["formula"] = [2 ** m - 1, m, 2 ** (m - 1) - 1, 2]
        if (rec.n, rec.k) != (2 ** m - 1, m):
            raise CodeError("simplex family parameters disagree with formula")
        return rec
    raise PreconditionError(f"unknown variant {variant!r}")


def bch_designed_bounds(m: int, delta: int) -> dict:
    """Certified weight bracket for the binary BCH code B(delta), n=2^m-1."""
    return {"bch_lower": delta,
            "singleton_wt_upper": bounds("singleton_wt", m=m, delta=delta),
            "dual_carlitz_uchiyama_lower":
                bounds("carlitz_uchiyama", m=m, delta=delta)}


def lemma_bch1(m: int, delta1: int, delta2: int,
               cap: int = DEFAULT_CAP) -> AqcParams:
    """Binary BCH pair C1 = B(delta2)^perp < C2 = B(delta1):
    [[2^m-1, n+m-m(delta1+delta2)/2, {wt B(delta2), wt B(delta1)}]]_2."""
    n = 2 ** m - 1
    dmax = 2 ** ((m + 1) // 2) - 1
    violations = []
    if not 2 <= delta1 <= delta2 <= dmax:
        violations.append(
            f"need 2 <= delta1 <= delta2 <= 2^ceil(m/2)-1 = {dmax}")
    if delta1 % 2 == 0 or delta2 % 2 == 0:
        violations.append("dimension formula needs odd designed distances")
    if violations:
        raise PreconditionError(violations)
    k1 = families.bch_dimension(n, 2, delta1)
    k2 = families.bch_dimension(n, 2, delta2)
    for d, kk in ((delta1, k1), (delta2, k2)):
        if kk != n - m * (d - 1) // 2:
            raise CodeError(f"coset dimension {kk} != formula for delta={d}")
    k = k1 + k2 - n
    if k != n + m - m * (delta1 + delta2) // 2:
        raise CodeError("dimension formula mismatch")
    prov = {"construction": "lemma_bch1", "m": m,
            "delta": [delta1, delta2],
            "bounds": {"dz": bch_designed_bounds(m, delta2),
                       "dx": bch_designed_bounds(m, delta1)}}
    dz = Bound(delta2, "lower_bound", "bch_bound")
    dx = Bound(delta1, "lower_bound", "bch_bound")
    if n <= MATRIX_LIMIT:
        f2 = build_field(2, 1)
        b1 = families.bch_narrow_sense(f2, n, delta1)
        b2 = families.bch_narrow_sense(f2, n, delta2)
        if (b1.k, b2.k) != (k1, k2):
            raise CodeError("matrix dimensions disagree with coset counting")
        # C1 = B(delta2)^perp < C2 = B(delta1): wt(C2 \ C1) is d_x
        dx, dz = _css_pair(b2.dual(), b1, cap)
        prov["nesting"] = "verified"
    else:
        prov["nesting"] = "unverifiable-at-scale"
    dz, dx = _normalize(dz, dx, prov)
    return AqcParams(n, k, dz, dx, 2, provenance=prov)


def charpin_family(m: int, i: int, cap: int = DEFAULT_CAP) -> list[AqcParams]:
    """The two Preparata-related families from B_i and B(2^i+1).

    Family 1: C1 = B(delta)^perp, C2 = B_i, k = 2^m-1-m(2+2^(i-1)).
    Family 2: C1 = B(delta),      C2 = B_i, k = m(2^(i-1)-2) (needs i >= 3).
    Each nesting is checked computationally and reported, never assumed.
    """
    n = 2 ** m - 1
    delta = 2 ** i + 1
    bi = families.preparata_like_bi(m, i)
    bdelta = families.bch_narrow_sense(build_field(2, 1), n, delta)
    k1f = 2 ** m - 1 - m * (2 + 2 ** (i - 1))
    if k1f <= 0:
        raise PreconditionError(f"family-1 dimension {k1f} not positive")
    out = [_charpin_record(1, bdelta.dual(), bi, k1f, _declared(delta, 5),
                           "B(delta)^perp not inside B_i; formula record only",
                           cap)]
    k2f = m * (2 ** (i - 1) - 2)
    if k2f > 0:
        wt_upper = Bound(bounds("singleton_wt", m=m, delta=delta),
                         "upper_bound", "singleton_wt")
        out.append(_charpin_record(
            2, bdelta, bi, k2f, [wt_upper, *_declared(5)],
            "B(delta) not inside B_i under the canonical root choice; "
            "formula record only", cap))
    return out


def _charpin_record(family: int, c1: LinearCode, bi: LinearCode, k: int,
                    formula: list, note: str, cap: int) -> AqcParams:
    """Family `family` of charpin_family: the css_standard record of
    C1 < B_i, whose dimension must be the formula's k, or the formula
    record (dz, dx) = `formula` when C1 is not inside B_i."""
    construction = f"charpin_family_{family}"
    if not bi.contains_code(c1):
        prov = {"construction": construction, "nesting": "failed",
                "notes": [note]}
        return AqcParams(bi.n, k, *formula, 2, provenance=prov)
    rec = css_standard(c1, bi, cap)
    rec.provenance["construction"] = construction
    rec.provenance["nesting"] = "verified"
    if rec.k != k:
        raise CodeError(f"family-{family} dimension {rec.k} != formula {k}")
    return rec


def rs_direct_sum_formula(q: int, k1: int, k2: int) -> tuple:
    """(n, k, d_a, d_b) of rs_direct_sum_aqc: 2q-1, 2(k1-k2), q-k1, k2+1."""
    return 2 * q - 1, 2 * (k1 - k2), q - k1, k2 + 1


def concat_expand_formula(q: int, m: int, k1: int, k2: int) -> tuple:
    """(n, k, d_a, d_b) of concat_expand_aqc: (m+1)(q^m-1), m(k1-k2),
    2(q^m-k1), 2(k2+1)."""
    big_q = q ** m
    return (m + 1) * (big_q - 1), m * (k1 - k2), 2 * (big_q - k1), 2 * (k2 + 1)


def _nested_dimensions(k1: int, k2: int, top: int, name: str) -> list:
    """The violation of 1 <= k2 < k1 <= top, where `name` spells top."""
    if 1 <= k2 < k1 <= top:
        return []
    return [f"need 1 <= k2 < k1 <= {name}, got ({k1},{k2})"]


def _formula_then_css(formula: tuple, c1: LinearCode, c2: LinearCode,
                      what: tuple, prov: dict, cap: int) -> AqcParams:
    """The record of formula (n, k, d_a, d_b) over C2's base field q,
    verified at matrix level: C1 < C2 must nest, with length n and
    k2 - k1 = k, or the error names what[0] (the codes) or what[1] (their
    dimensions).  (dz, dx) is the CSS pair of C1 < C2 (its raw pair in
    `prov`) when q^k2 is within the cap, else the formula pair (in `prov`
    either way) as declared."""
    n, k, da, db = formula
    if not c2.contains_code(c1):
        raise PreconditionError(f"{what[0]} are not nested")
    if (c2.n, c2.k - c1.k) != (n, k):
        raise CodeError(f"{what[1]} disagree with formula")
    prov["formula_pair"] = [da, db]
    if c2.field.order ** c2.k > cap:
        pair = _declared(da, db)
    else:
        pair = _css_pair(c1, c2, cap)
        prov["raw_pair"] = [w.to_json() for w in pair]
    return AqcParams(n, k, *_normalize(*pair, prov), c2.field.order,
                     provenance=prov)


def rs_direct_sum_aqc(q: int, k1: int, k2: int,
                      cap: int = DEFAULT_CAP) -> AqcParams:
    """RS direct sums C_i (+) extend(C_i): the record of
    rs_direct_sum_formula."""
    if violations := _nested_dimensions(k1, k2, q - 1, "q-1"):
        raise PreconditionError(violations)
    sums = []
    for c in (families.rs_code(q, k1), families.rs_code(q, k2)):
        ext = c.extend_parity()
        s = lincode.direct_sum(c, ext)
        # identity used by the construction: dual distributes over direct sum
        if s.dual() != lincode.direct_sum(c.dual(), ext.dual()):
            raise CodeError("dual of direct sum != direct sum of duals")
        sums.append(s)
    prov = {"construction": "rs_direct_sum", "q": q, "k1": k1, "k2": k2,
            "nesting": "verified", "dual_decomposition": "verified"}
    big, small = sums
    return _formula_then_css(rs_direct_sum_formula(q, k1, k2), small, big,
                             ("direct-sum codes", "direct-sum dimensions"),
                             prov, cap)


def _require_degree(m: int):
    if m < 1:
        raise PreconditionError(f"extension degree m={m} must be at least 1")


def concat_expand_aqc(q: int, m: int, k1: int, k2: int,
                      cap: int = DEFAULT_CAP) -> AqcParams:
    """Parity-augmented basis expansion of nested RS codes over GF(q^m): the
    record of concat_expand_formula."""
    _require_degree(m)
    p, _ = prime_power(q)
    big_q = q ** m
    violations = _nested_dimensions(k1, k2, big_q - 1, "q^m-1")
    if q % 2 == 1 and (q != p or m % 2 == 0):
        violations.insert(0, "odd q must be prime with m odd")
    if violations:
        raise PreconditionError(violations)
    basis = standard_basis(get_embedding(field_from_q(q), field_from_q(big_q)))
    e1, e2 = (lincode.expand_with_parity(families.rs_code(big_q, kk), basis)
              for kk in (k1, k2))
    prov = {"construction": "concat_expand", "q": q, "m": m,
            "k1": k1, "k2": k2, "nesting": "verified"}
    return _formula_then_css(concat_expand_formula(q, m, k1, k2), e2, e1,
                             ("expanded RS codes", "expanded dimensions"),
                             prov, cap)


def quantum_concat_params(q: int, m: int, k1: int, k2: int,
                          k: int) -> AqcParams:
    """Concatenation with the AQMDS [[q^m-2, 1, {q^m-k-1, k}]] inner code:
    [[(m+1)(q^m-1)(q^m-2), m(k1-k2), >= D]]_q with D = d*d'."""
    _require_degree(m)
    big_q = q ** m
    violations = _nested_dimensions(k1, k2, big_q - 1, "q^m-1")
    if not 1 <= k <= big_q - 3:
        violations.insert(
            0, f"inner parameter k={k} must satisfy 1 <= k <= q^m-3")
    if violations:
        raise PreconditionError(violations)
    n_outer, k_outer, da, db = concat_expand_formula(q, m, k1, k2)
    d_outer = min(da, db)
    # the factor 2 applies to only one member of the inner pair, as stated
    d_inner = min(2 * (big_q - k - 1), k)
    big_d = d_outer * d_inner
    prov = {"construction": "quantum_concatenation", "q": q, "m": m,
            "k1": k1, "k2": k2, "inner_k": k,
            "d_outer": d_outer, "d_inner": d_inner,
            "notes": ["distance is a lower bound D = d*d'",
                      "inner distance formula min{2(q^m-k-1), k} implemented "
                      "as stated; the asymmetric factor 2 is flagged"]}
    d = Bound(big_d, "lower_bound", "concatenation")
    return AqcParams(n_outer * (big_q - 2), k_outer, d, d, q, provenance=prov)


def negacyclic_expand_aqc(q: int, n: int, s: int, m: int) -> AqcParams:
    """Self-dual-basis expansion of the negacyclic C_s family:
    [[(m+1)n, m(n-s), {2(s/2+1), 2(n-s/2+1)}]]_q at formula level, with an
    itemized report of every construction-level hypothesis."""
    _require_degree(m)
    if s >= n:
        raise PreconditionError(
            f"s={s} leaves dimension m(n-s) <= 0 at the s=n boundary")
    report = {}
    try:
        code = families.negacyclic_cs(q, n, s)
        report["negacyclic_cs"] = "verified"
        report["hermitian_dual_containing"] = (
            "holds" if code.hermitian_containing else "fails")
    except PreconditionError as exc:
        raise PreconditionError(
            [f"negacyclic base code: {v}" for v in exc.violations])
    p, e = prime_power(q)
    report["q_is_p_squared"] = "holds" if e == 2 else f"fails (q = {p}^{e})"
    report["q_even_or_q_and_m_odd"] = (
        "holds" if (q % 2 == 0 or (q % 2 == 1 and m % 2 == 1)) else "fails")
    report["q_odd_prime"] = "holds" if (e == 1 and q % 2 == 1) else "fails"
    sub = field_from_q(q)
    report["self_dual_basis_exists"] = (
        "holds" if self_dual_basis_exists(sub, m) else "fails")
    prov = {"construction": "negacyclic_expand", "q": q, "n": n, "s": s,
            "m": m, "hypothesis_report": report,
            "notes": ["theorem hypotheses conflict with the base-code lemma; "
                      "each is reported individually"]}
    da, db = 2 * (s // 2 + 1), 2 * (n - s // 2 + 1)
    dz, dx = _normalize(*_declared(da, db), prov)
    return AqcParams((m + 1) * n, m * (n - s), dz, dx, q, provenance=prov)


def bounds(kind: str, **args) -> int:
    """Carlitz-Uchiyama and Singleton bound calculators.

    Carlitz-Uchiyama: every nonzero weight of B(2t+1)^perp, n = 2^m - 1, is
    at least 2^(m-1) - (t-1).2^(m/2), in exact integers; a vacuous value
    (below 1) is reported as 1.  t = floor(delta/2), since the binary
    narrow-sense B(2t) equals B(2t+1).  PreconditionError: m > BOUND_MAX_M,
    delta outside 2..2^m - 1, or k outside 1..n."""
    if kind in ("carlitz_uchiyama", "singleton_wt"):
        m, delta = args["m"], args["delta"]
        if m > BOUND_MAX_M:
            raise PreconditionError(
                f"m={m} is above {BOUND_MAX_M}: its bounds would not print")
        if not 2 <= delta or delta.bit_length() > m:   # delta < 2^m
            raise PreconditionError(
                f"delta={delta} is outside 2..2^m - 1 for m={m}")
    if kind == "carlitz_uchiyama":
        t = delta // 2
        return max(1, 2 ** (m - 1) - math.isqrt((t - 1) ** 2 * 2 ** m))
    if kind == "singleton_wt":
        return m * ((delta - 1) // 2) + 1
    if kind == "singleton":
        n, k = args["n"], args["k"]
        if not 1 <= k <= n:
            raise PreconditionError(f"k={k} is outside 1..n for n={n}")
        return n - k + 1
    raise PreconditionError(f"unknown bound kind {kind!r}")
