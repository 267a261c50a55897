"""Output summaries and the reference check of the qct benchmark.

An item's output is summarized as what a user relies on: for each quantum
record n, k, q, dz, dx and whether each distance is exact; for each audit row
its claim and status.  `compare` accepts an output that is identical to the
frozen reference or refines it:

- a distance the reference has as exact must come back exact and equal
  (so no lower bound can stand in for, or exceed, a reference exact value);
- a distance the reference has as non-exact may change;
- confirmed and inconsistent rows keep their status;
- formula-consistent and unverifiable-at-scale rows may stay as they are or
  resolve to confirmed or inconsistent.

Exactness is compared as exact or not, never by its vocabulary strings.
"""

from __future__ import annotations

SETTLED = ("confirmed", "inconsistent")
OPEN = ("formula-consistent", "unverifiable-at-scale")


def is_exact(flag) -> bool:
    """Exactness as yes/no: a True flag or the string 'exact'."""
    return flag is True or flag == "exact"


def record_summary(rec: dict) -> dict:
    """Summary of a quantum record in its JSON form."""
    return {"n": rec["n"], "k": rec["k"], "q": rec["q"],
            "dz": rec["dz"], "dx": rec["dx"],
            "dz_exact": is_exact(rec["exact"]["dz"]),
            "dx_exact": is_exact(rec["exact"]["dx"])}


def report_summary(report: dict) -> list:
    """Summary of an audit report in its JSON form: [claim, status] rows."""
    return [[row["claim"], row["status"]] for row in report["rows"]]


def exact_counts(output: dict) -> tuple[int, int]:
    """(exact results, results): two per record, one per audit row."""
    exact = total = 0
    for rec in output.get("records", []):
        exact += rec["dz_exact"] + rec["dx_exact"]
        total += 2
    for _, status in output.get("rows", []):
        exact += status in SETTLED
        total += 1
    return exact, total


def _distances_refine(ref: dict, got: dict) -> bool:
    want = [(ref["dz"], ref["dz_exact"]), (ref["dx"], ref["dx_exact"])]
    have = [(got["dz"], got["dz_exact"]), (got["dx"], got["dx_exact"])]
    # records are normalized to dz >= dx, so a refined non-exact distance
    # may swap places with the other one
    for order in (have, have[::-1]):
        if all(not r_exact or (g_exact and g == r)
               for (r, r_exact), (g, g_exact) in zip(want, order)):
            return True
    return False


def compare(ref: dict, got: dict) -> list[str]:
    """Problems with `got` against the reference output `ref` (empty: pass)."""
    problems = []
    ref_recs, got_recs = ref.get("records", []), got.get("records", [])
    if len(ref_recs) != len(got_recs):
        problems.append(f"{len(got_recs)} records, reference has "
                        f"{len(ref_recs)}")
    for r, g in zip(ref_recs, got_recs):
        if (r["n"], r["k"], r["q"]) != (g["n"], g["k"], g["q"]):
            problems.append(f"parameters {g} differ from reference {r}")
        elif not _distances_refine(r, g):
            problems.append(f"distances {g} do not refine reference {r}")
    ref_rows, got_rows = ref.get("rows", []), got.get("rows", [])
    if [c for c, _ in ref_rows] != [c for c, _ in got_rows]:
        problems.append("audit claims differ from the reference")
    else:
        for (claim, r), (_, g) in zip(ref_rows, got_rows):
            allowed = {r, *SETTLED} if r in OPEN else {r}
            if g not in allowed:
                problems.append(f"{claim}: status {g!r}, reference {r!r}")
    return problems
