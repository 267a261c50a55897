import json

import click
import numpy as np
import pytest
from click.testing import CliRunner

from qct import families, gflinalg, lincode
from qct.cli import main, run_cli
from qct.galois import build_field
from qct.lincode import LinearCode, min_distance


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(main, args, obj={}, **kw)


def test_field_dual_basis(runner):
    res = invoke(runner, ["field", "--p", "2", "--e", "2",
                          "--dual-basis", "1,w"])
    assert res.exit_code == 0
    assert "dual_basis: [3, 1]" in res.output


def test_field_self_dual_basis_json(runner):
    res = invoke(runner, ["field", "--p", "2", "--e", "2",
                          "--self-dual-basis", "--json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["self_dual_basis"] == [2, 3]


def test_quantum_bch1_json(runner):
    res = invoke(runner, ["quantum", "bch1", "--m", "10", "--d1", "15",
                          "--d2", "31", "--json"])
    rec = json.loads(res.output)
    assert (rec["n"], rec["k"], rec["dz"], rec["dx"]) == (1023, 803, 31, 15)


def test_code_build_and_distance(runner, tmp_path):
    res = invoke(runner, ["code", "build", "rs", "--q", "4", "--k", "2",
                          "--json"])
    assert res.exit_code == 0
    path = tmp_path / "rs.json"
    path.write_text(res.output)
    res = invoke(runner, ["code", "distance", str(path)])
    assert res.exit_code == 0 and "d=2" in res.output
    res = invoke(runner, ["code", "dual", str(path)])
    assert res.exit_code == 0 and "[3,1]_4" in res.output


def test_code_roundtrip_through_json(runner, tmp_path):
    res = invoke(runner, ["code", "build", "bch", "--q", "2", "--n", "7",
                          "--delta", "3", "--json"])
    path = tmp_path / "bch.json"
    path.write_text(res.output)
    res2 = invoke(runner, ["quantum", "allone", str(path), "--json"])
    rec = json.loads(res2.output)
    assert (rec["n"], rec["k"], rec["dz"], rec["dx"]) == (7, 3, 3, 2)


def test_json_output_deterministic(runner):
    args = ["quantum", "rsds", "--q", "16", "--k1", "9", "--k2", "2",
            "--json"]
    out1 = invoke(runner, args).output
    out2 = invoke(runner, args).output
    assert out1 == out2


def test_audit_exit_zero_on_inconsistent_rows(runner):
    res = invoke(runner, ["audit", "table4"])
    assert res.exit_code == 0
    assert "inconsistent" in res.output


def test_audit_csv(runner):
    res = invoke(runner, ["audit", "table3", "--csv"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "claim,status"
    assert len(lines) == 5


def test_exit_codes():
    assert run_cli(["quantum", "bound", "--kind", "singleton",
                    "--n", "5", "--k", "5"]) == 0
    assert run_cli(["code", "build", "rs", "--q", "4", "--k", "9"]) == 1
    assert run_cli(["nosuchcommand"]) == 2
    assert run_cli(["code", "build", "rs", "--q", "4"]) == 2


@pytest.mark.parametrize("args,budget,code,message", [
    pytest.param(["field", "--p", "3", "--e", "2"], None, 0, None,
                 id="field-0"),
    pytest.param(["field", "--p", "4"], None, 1, "4 is not prime",
                 id="field-1"),
    pytest.param(["field", "--p", "two"], None, 2,
                 "'two' is not a valid integer", id="field-2"),
    pytest.param(["code", "build", "rs", "--q", "4", "--k", "2"], None, 0,
                 None, id="build-0"),
    pytest.param(["code", "build", "rs", "--q", "4", "--k", "9"], None, 1,
                 "RS dimension k=9", id="build-1"),
    pytest.param(["code", "build", "rs", "--q", "4"], None, 2,
                 "Missing option '--k'", id="build-2"),
    pytest.param(["code", "build", "negacyclic", "--q", "9", "--n", "0",
                  "--s", "2"], None, 1, "n=0 is not an even divisor",
                 id="build-negacyclic-n0"),
    pytest.param(["code", "build", "bch", "--q", "4", "--n", "-3", "--delta",
                  "2"], None, 1, "BCH length n=-3", id="build-bch-n-negative"),
    pytest.param(["code", "build", "preparata", "--m", "3", "--i", "-1"], None,
                 1, "i=-1 must be at least 1",
                 id="build-preparata-i-negative"),
    pytest.param(["code", "build", "bch", "--q", "4", "--n", "15", "--delta",
                  "3"], 100, 1, "rref of a 11 x 15 matrix",
                 id="build-rref-budget"),
    pytest.param(["audit", "table1"], None, 0, None, id="audit-0"),
    pytest.param(["audit", "table1"], 100, 1, "rref of a 13 x 15 matrix",
                 id="audit-rref-budget"),
    pytest.param(["audit", "nosuch"], None, 2, "'nosuch' is not one of",
                 id="audit-2"),
])
def test_field_build_audit_exit_codes(monkeypatch, capsys, args, budget,
                                      code, message):
    """One row per documented exit code of `field`, `code build` and
    `audit`: exit 0 writes nothing to stderr, exit 1 and 2 one line.  The
    rows with a budget lower gflinalg's rref budget to it."""
    if budget is not None:
        monkeypatch.setattr(gflinalg, "_RREF_BUDGET", budget)
    assert run_cli(args) == code
    err = capsys.readouterr().err
    if message is None:
        assert err == ""
    else:
        assert len(err.strip().splitlines()) == 1 and message in err
        assert err.startswith({1: "error: ", 2: "usage error: "}[code])


@pytest.fixture
def code_files(tmp_path, monkeypatch):
    """Code records in the working directory, named <key>.json."""
    f2, f4 = build_field(2, 1), build_field(2, 2)
    ham = families.bch_narrow_sense(f2, 7, 3)
    codes = {"ham": ham, "simplex": ham.dual(), "ext": ham.extend_parity(),
             "bch4": families.bch_narrow_sense(f4, 15, 7),
             "h1": LinearCode(f4, np.array([[1, 1]])),
             "h2": LinearCode(f4, np.eye(2, dtype=np.int64)),
             "hd1": LinearCode(f4, np.array([[1, 2, 0], [0, 0, 1]])),
             "e12": LinearCode(f4, np.eye(3, dtype=np.int64)[:2]),
             "e3": LinearCode(f4, np.array([[0, 0, 1]])),
             "f4all": LinearCode(f4, np.eye(3, dtype=np.int64)),
             "rs": families.rs_code(4, 2)}
    for key, code in codes.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(code.to_json()))
    rank0 = dict(codes["rs"].to_json(), generator=[[0, 0, 0]], k=None)
    (tmp_path / "zero.json").write_text(json.dumps(rank0))
    (tmp_path / "list.json").write_text("[1, 2]")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("args,code,line", [
    ("quantum css --c1 simplex.json --c2 ham.json", 0,
     "[[7,1,{3,3}]]_2 purity=pure exact=(exact,exact)"),
    ("quantum css --hermitian --c1 h1.json --c2 h2.json", 0,
     "[[2,1,{2,1}]]_2 purity=pure exact=(exact,exact)"),
    ("quantum css --hermitian --c1 hd1.json --c2 e12.json", 0,
     "[[3,1,{2,1}]]_2 purity=degenerate exact=(exact,exact)"),
    ("quantum allone ham.json", 0,
     "[[7,3,{3,2}]]_2 purity=pure exact=(exact,exact)"),
    ("quantum best --variant simplex --m 3", 0,
     "[[7,3,{3,2}]]_2 purity=pure exact=(exact,exact)"),
    ("quantum best --variant bch --source bch4.json", 0,
     "[[15,5,{7,2}]]_4 purity=pure exact=(exact,exact)"),
    ("quantum best --variant self_dual --source ext.json", 0,
     "[[8,3,{4,2}]]_2 purity=pure exact=(exact,exact)"),
    ("quantum best --variant simplex", 2,
     "usage error: --m required for the simplex variant"),
    ("quantum best --variant bch", 2,
     "usage error: --source required for this variant"),
    ("quantum qconcat --q 4 --m 2 --k1 13 --k2 1 --k 7", 0,
     "[[630,24,{28,28}]]_4 purity=unknown exact=(lower_bound,lower_bound)"),
    ("code expand rs.json --sub-q 2", 0, "[6,4]_2 expand(rs[3,2]_4)"),
    ("code expand rs.json --sub-q 2 --parity", 0,
     "[9,4]_2 expand_parity(rs[3,2]_4)"),
    ("code build simplex --m 3", 0, "[7,3]_2 simplex(m=3)"),
    ("code build preparata --m 5 --i 2", 0, "[31,21]_2 preparata_bi(m=5,i=2)"),
])
def test_quantum_and_code_commands(code_files, capsys, args, code, line):
    """One row per command, in text form: its exit code and the first line
    it prints (stdout on exit 0, the one stderr line otherwise)."""
    assert run_cli(args.split()) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert err == "" and out.splitlines()[0] == line
    else:
        assert out == "" and err.strip() == line


@pytest.mark.parametrize("args,budget,code,message", [
    pytest.param("code distance ham.json", None, 0, None, id="distance-0"),
    pytest.param("code distance missing.json", None, 1,
                 "cannot load missing.json", id="distance-1-unreadable"),
    pytest.param("code distance list.json", None, 1,
                 "not a JSON object", id="distance-1-not-object"),
    pytest.param("code distance zero.json", None, 1,
                 "generator matrix must be a non-empty",
                 id="distance-1-rank-0"),
    pytest.param("--cap 1152921504606846976 code distance ham.json",
                 {"_WALK_BUDGET": 15}, 1, "up to 16 words, over the budget 15",
                 id="distance-1-budget"),
    pytest.param("--cap 1 code distance ham.json",
                 {"_SEARCH_ROWS_BUDGET": 223}, 1,
                 "the candidate rows take 224 bytes, over the budget 223",
                 id="distance-1-search-budget"),
    pytest.param("code distance", None, 2, "Missing argument 'SOURCE'",
                 id="distance-2"),
    pytest.param("code dual ham.json", None, 0, None, id="dual-0"),
    pytest.param("code dual missing.json", None, 1,
                 "cannot load missing.json", id="dual-1-unreadable"),
    pytest.param("code dual list.json", None, 1,
                 "not a JSON object", id="dual-1-not-object"),
    pytest.param("code dual zero.json", None, 1,
                 "generator matrix must be a non-empty", id="dual-1-rank-0"),
    pytest.param("code dual", None, 2, "Missing argument 'SOURCE'",
                 id="dual-2"),
    pytest.param("code expand rs.json --sub-q 2", None, 0, None,
                 id="expand-0"),
    pytest.param("code expand missing.json --sub-q 2", None, 1,
                 "cannot load missing.json", id="expand-1-unreadable"),
    pytest.param("code expand list.json --sub-q 2", None, 1,
                 "not a JSON object", id="expand-1-not-object"),
    pytest.param("code expand zero.json --sub-q 2", None, 1,
                 "generator matrix must be a non-empty", id="expand-1-rank-0"),
    pytest.param("code expand rs.json", None, 2, "Missing option '--sub-q'",
                 id="expand-2"),
])
def test_distance_dual_expand_exit_codes(code_files, monkeypatch, capsys, args,
                                         budget, code, message):
    """One row per documented exit code of `code distance`, `dual` and
    `expand`: exit 0 writes nothing to stderr, exit 1 and 2 one line.  The
    budget rows lower a lincode budget: the enumeration walk's to 15 words,
    below the 16 of the [7,4]_2 walk that --cap 2^60 admits, and the witness
    search's to 223 bytes, below the 224 of its [7,4]_2 rows at --cap 1."""
    for name, value in (budget or {}).items():
        monkeypatch.setattr(lincode, name, value)
    assert run_cli(args.split()) == code
    out, err = capsys.readouterr()
    if message is None:
        assert err == "" and out
    else:
        assert out == "" and len(err.strip().splitlines()) == 1
        assert message in err
        assert err.startswith({1: "error: ", 2: "usage error: "}[code])


@pytest.mark.parametrize("args,message", [
    pytest.param("quantum css --c1 ham.json --c2 simplex.json",
                 "C1 is not contained in C2", id="css-not-contained"),
    pytest.param("quantum css --c1 ham.json --c2 bch4.json",
                 "CSS input codes must share field and length",
                 id="css-mismatch"),
    pytest.param("quantum css --hermitian --c1 simplex.json --c2 ham.json",
                 "GF(2) is not a square extension", id="css-hermitian-gf2"),
    pytest.param("quantum css --hermitian --c1 f4all.json --c2 f4all.json",
                 "CSS needs proper nesting with k2 > k1 >= 1",
                 id="css-hermitian-zero"),
    pytest.param("quantum css --hermitian --c1 e12.json --c2 e12.json",
                 "C1^(perp h) is not contained in C2",
                 id="css-hermitian-not-contained"),
    pytest.param("quantum css --hermitian --c1 e12.json --c2 e3.json",
                 "derived dimension 0 is not positive",
                 id="css-hermitian-dimension"),
    pytest.param("quantum css --c1 missing.json --c2 ham.json",
                 "cannot load missing.json", id="css-unreadable"),
    pytest.param("quantum css --c1 zero.json --c2 rs.json",
                 "generator matrix must be a non-empty", id="css-rank-0"),
    pytest.param("quantum allone simplex.json",
                 "code does not contain the all-one codeword",
                 id="allone-no-all-one-word"),
    pytest.param("quantum best --variant bch --source missing.json",
                 "cannot load missing.json", id="best-missing-source"),
    pytest.param("quantum negaexp --q 9 --n 8 --s 4 --m 0",
                 "extension degree m=0", id="negaexp-m0"),
    pytest.param("quantum concat --q 4 --m 0 --k1 2 --k2 1",
                 "extension degree m=0", id="concat-m0"),
    pytest.param("quantum qconcat --q 4 --m 0 --k1 2 --k2 1 --k 1",
                 "extension degree m=0", id="qconcat-m0"),
    pytest.param("quantum charpin --m 5 --i -2", "i=-2 must be at least 1",
                 id="charpin-i-negative"),
])
def test_quantum_exit_codes(code_files, capsys, args, message):
    """One row per exit-1 case of `quantum css`, `allone`, `best`, `negaexp`,
    `concat`, `qconcat` and `charpin`: empty stdout and one stderr line.  The
    first, fifth and ninth rows are refused by a containment check
    (contains_code, contains_word)."""
    assert run_cli(args.split()) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.strip().splitlines()) == 1
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("path,options", [
    ("code build rs", "q k"),
    ("code build bch", "q n delta"),
    ("code build simplex", "m"),
    ("code build preparata", "m i"),
    ("code build negacyclic", "q n s"),
    ("quantum bch1", "m d1 d2"),
    ("quantum charpin", "m i"),
    ("quantum rsds", "q k1 k2"),
    ("quantum concat", "q m k1 k2"),
    ("quantum qconcat", "q m k1 k2 k"),
    ("quantum negaexp", "q n s m"),
])
def test_family_command_options(capsys, path, options):
    """Each family command takes its required integer options in order, then
    the --json flag, and only `qconcat --k` has a help text.  Leaving out the
    last option exits 2 with one stderr line."""
    cmd = main
    for name in path.split():
        cmd = cmd.commands[name]
    names = options.split()
    assert [p.opts for p in cmd.params] == [[f"--{o}"] for o in names] + [
        ["--json"]]
    *ints, flag = cmd.params
    for p in ints:
        assert isinstance(p, click.Option) and p.required
        assert p.type is click.INT and not p.is_flag
        assert p.help == ("inner AQMDS parameter"
                          if (path, p.name) == ("quantum qconcat", "k")
                          else None)
    assert isinstance(flag, click.Option) and flag.is_flag
    assert (flag.name, flag.required, flag.help) == ("as_json", False, None)
    args = path.split() + [a for o in names[:-1] for a in (f"--{o}", "1")]
    assert run_cli(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: Missing option '--{names[-1]}'.\n"


def test_catalog_flow(runner, tmp_path):
    cat = str(tmp_path / "cat.jsonl")
    res = invoke(runner, ["code", "build", "rs", "--q", "4", "--k", "2",
                          "--json"])
    path = tmp_path / "rs.json"
    path.write_text(res.output)
    r1 = invoke(runner, ["--catalog", cat, "catalog", "put", str(path),
                         "--kind", "classical"])
    r2 = invoke(runner, ["--catalog", cat, "catalog", "put", str(path),
                         "--kind", "classical"])
    assert r1.output == r2.output
    res = invoke(runner, ["--catalog", cat, "catalog", "list"])
    assert len(res.output.strip().splitlines()) == 1
    res = invoke(runner, ["--catalog", cat, "catalog", "search", "--n", "3"])
    assert "rs[3,2]_4" in res.output
    res = invoke(runner, ["--catalog", cat, "catalog", "search", "--q", "4"])
    assert "rs[3,2]_4" in res.output
    res = invoke(runner, ["--catalog", cat, "catalog", "search", "--q", "2"])
    assert res.exit_code == 0 and res.output == ""
    res = invoke(runner, ["catalog", "list"])
    assert res.exit_code == 2


def test_negacyclic_build_and_hdual(runner, tmp_path):
    res = invoke(runner, ["code", "build", "negacyclic", "--q", "9",
                          "--n", "8", "--s", "4", "--json"])
    path = tmp_path / "neg.json"
    path.write_text(res.output)
    res = invoke(runner, ["code", "hdual", str(path)])
    assert res.exit_code == 0 and "[8,2]_81" in res.output


def test_load_code_errors_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    no_field = tmp_path / "nofield.json"
    no_field.write_text('{"x": 1}')
    not_json = tmp_path / "bad.json"
    not_json.write_text("{not json")
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    bad_field = tmp_path / "badfield.json"
    bad_field.write_text('{"field": 3, "generator": [[1]]}')
    gf4 = '{"p": 2, "e": 2, "modulus": [1, 1, 1], "generator": 2}'
    entries = []
    for name, entry in (("float", "1.7"), ("string", '"1"'), ("bool", "true"),
                        ("huge", str(10 ** 30))):
        entries.append(tmp_path / f"entry-{name}.json")
        entries[-1].write_text(f'{{"field": {gf4}, '
                               f'"generator": [[{entry}, 0, 1], [0, 1, 1]]}}')
    for path in (missing, no_field, not_json, not_object, bad_field, *entries):
        capsys.readouterr()
        assert run_cli(["code", "distance", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load {path}")
        assert len(err.strip().splitlines()) == 1
    assert run_cli(["code", "dual", str(no_field)]) == 1
    assert "missing field 'field'" in capsys.readouterr().err
    assert run_cli(["--catalog", str(tmp_path / "cat.jsonl"), "catalog", "put",
                    missing, "--kind", "classical"]) == 1


def test_stored_distance_is_not_trusted(runner, tmp_path):
    res = invoke(runner, ["code", "build", "rs", "--q", "4", "--k", "2",
                          "--json"])
    rec = json.loads(res.output)
    rec["distance"] = {"value": 99, "exactness": "exact"}
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(rec))
    res = invoke(runner, ["code", "distance", str(path)])
    assert res.exit_code == 0
    assert res.output.strip() == "d=2 (exact, enumeration)"


@pytest.mark.parametrize("key,value", [("design_distance", 0),
                                       ("design_distance", 4),
                                       ("declared_distance", 99),
                                       ("declared_distance", 1.5),
                                       ("design_distance", True)])
def test_out_of_range_distance_claim_exits_one(tmp_path, capsys, key, value):
    # rs[3,2]_4 has Singleton bound n - k + 1 = 2
    assert run_cli(["code", "build", "rs", "--q", "4", "--k", "2",
                    "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    rec[key] = value
    path = tmp_path / "claim.json"
    path.write_text(json.dumps(rec))
    assert run_cli(["code", "distance", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} {value}" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_must_be_positive(threads):
    assert run_cli(["--threads", threads, "audit", "table4"]) == 2


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_must_be_positive(cap, capsys):
    assert run_cli(["--cap", cap, "audit", "table4"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--cap" in err


def test_catalog_truncated_tail_warns_on_one_line(tmp_path, capsys):
    cat = tmp_path / "cat.jsonl"
    payload = tmp_path / "p.json"
    payload.write_text('{"n": 7, "k": 1, "q": 2, "dz": 3, "dx": 3}')
    assert run_cli(["--catalog", str(cat), "catalog", "put", str(payload),
                    "--kind", "quantum"]) == 0
    eid = capsys.readouterr().out.strip()
    with open(cat, "ab") as fh:
        fh.write(b'{"id": "cut')
    assert run_cli(["--catalog", str(cat), "catalog", "get", eid]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["id"] == eid
    assert out.err.startswith("warning: catalog ") and "line 2" in out.err
    assert len(out.err.strip().splitlines()) == 1
    # a put terminates the cut line; it is then a corrupt inner line
    payload.write_text('{"n": 9}')
    assert run_cli(["--catalog", str(cat), "catalog", "put", str(payload),
                    "--kind", "classical"]) == 0
    capsys.readouterr()
    assert run_cli(["--catalog", str(cat), "catalog", "list"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read catalog") and "line 2" in err
    assert len(err.strip().splitlines()) == 1


def test_loaded_design_distance_never_certifies(tmp_path, capsys):
    """A stored design distance is only declared: a loaded BCH record never
    reports witness_meets_bch_bound, while the code built in process does."""
    built = families.bch_narrow_sense(build_field(2, 1), 15, 5)
    assert min_distance(built, cap=1).method == "witness_meets_bch_bound"
    assert run_cli(["code", "build", "bch", "--q", "2", "--n", "15",
                    "--delta", "5", "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["design_distance"] == 5
    path = tmp_path / "bch.json"
    for design, declared in ((5, None), (6, None), (4, 6), (6, 4)):
        rec["design_distance"] = design
        rec.pop("declared_distance", None)
        if declared is not None:
            rec["declared_distance"] = declared
        path.write_text(json.dumps(rec))
        assert run_cli(["--cap", "1", "code", "distance", str(path),
                        "--json"]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["method"] != "witness_meets_bch_bound"
        assert res["upper"] == 5
        # the larger stored value is declared; 6 is refuted by the witness,
        # and a declared value that stands keeps the kind `declared`
        want = 5 if max(design, declared or 0) == 5 else 2
        assert res["value"] == want
        assert res["exactness"] == ("declared" if want == 5 else "lower_bound")


BAD_FIELD_RECORDS = [
    {"generator": 6}, {"generator": -1}, {"generator": 2.0},
    {"generator": "x"}, {"modulus": [1, 3, 1]}, {"modulus": [-1, 1, 1]},
    {"modulus": [1.0, 1, 1]},
    {"p": 1000000000000000003, "e": 1, "modulus": [0, 1]},
    {"e": 400_000_000}, {"e": -3}, {"e": 0},
]


@pytest.mark.parametrize("change", BAD_FIELD_RECORDS)
def test_bad_field_record_exits_one(no_big_factoring, tmp_path, capsys,
                                    change):
    assert run_cli(["code", "build", "rs", "--q", "4", "--k", "2",
                    "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    rec["field"].update(change)
    path = tmp_path / "field.json"
    path.write_text(json.dumps(rec))
    assert run_cli(["code", "distance", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("extra", [[], ["--parity"]])
def test_expand_of_zero_generator_exits_one(tmp_path, capsys, extra):
    assert run_cli(["code", "build", "rs", "--q", "4", "--k", "2",
                    "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    rec["generator"], rec["k"] = [[0, 0, 0]], None
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(rec))
    assert run_cli(["code", "expand", str(path), "--sub-q", "2",
                    *extra]) == 1
    err = capsys.readouterr().err
    assert err == "error: generator matrix must be a non-empty 2-d array\n"


@pytest.mark.parametrize("args", [
    ["dual"], ["hdual"], ["puncture"], ["extend"], ["distance"],
    ["expand", "--sub-q", "2"],
])
def test_rank_zero_record_exits_one(tmp_path, capsys, args):
    assert run_cli(["code", "build", "rs", "--q", "4", "--k", "2",
                    "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    rec["generator"], rec["k"] = [[0, 0, 0]], None
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(rec))
    assert run_cli(["code", args[0], str(path), *args[1:]]) == 1
    assert capsys.readouterr() == (
        "", "error: generator matrix must be a non-empty 2-d array\n")


@pytest.mark.parametrize("args,code", [
    (["field", "--p", "1000000000000000003"], 1),
    (["field", "--p", "2", "--e", "-3"], 1),
    (["field", "--p", "2", "--e", "0"], 1),
    (["field", "--p", "2", "--e", "400000000"], 1),
    (["field", "--p", "2", "--e", "17"], 1),
    (["field", "--p", "65537"], 1),
    (["field", "--p", "4"], 1),
    (["field", "--p", "two"], 2),
    (["field", "--p", "2", "--e", "2.5"], 2),
    (["code", "build", "rs", "--q", "1000000000000000003", "--k", "2"], 1),
    *((["field", "--p", "2", "--e", "2", "--dual-basis", basis], 1)
      for basis in ("1,abc", "1,w^x", "1,w^", "1,", "wx,1", "1", "1,2,3",
                    "1,4", "1,1")),
    (["code", "build", "simplex", "--m", "17"], 1),
    (["quantum", "best", "--variant", "simplex", "--m", "17"], 1),
])
def test_out_of_range_field_exits_cleanly(no_big_factoring, capsys, args,
                                          code):
    assert run_cli(args) == code
    err = capsys.readouterr().err
    assert "error: " in err and len(err.strip().splitlines()) == 1


STORED = json.dumps({"id": "a" * 64, "kind": "quantum", "payload": {"n": 7},
                     "created": "2026-01-01T00:00:00+00:00",
                     "inputs": []}).encode()


@pytest.mark.parametrize("store,args,code,message", [
    pytest.param(None, ["catalog", "list"], 2, "--catalog", id="no-catalog"),
    pytest.param(b"", ["catalog", "put", "{tmp}/missing.json", "--kind",
                       "quantum"], 1, "cannot load", id="unreadable-source"),
    pytest.param(b"", ["catalog", "put", "{tmp}/array.json", "--kind",
                       "quantum"], 1, "JSON object", id="non-object-payload"),
    pytest.param(STORED + b"\n", ["catalog", "get", "0" * 64], 1, "not found",
                 id="unknown-id"),
    pytest.param(b"not json\n" + STORED + b"\n", ["catalog", "search"], 1,
                 "line 1", id="corrupt-inner-line"),
    pytest.param(STORED + b"\n" + STORED.replace(b'{"n": 7}', b"[1, 2]")
                 + b"\n", ["catalog", "search", "--n", "7"], 1, "line 2",
                 id="non-object-payload-line"),
    pytest.param(STORED + b'\n{"id": "cut', ["catalog", "list"], 0,
                 "skipped unterminated line 2", id="cut-short-tail"),
    pytest.param(b"", ["catalog", "put", "{tmp}/text_dz.json", "--kind",
                       "quantum"], 1, "'dz' must be an integer",
                 id="non-integer-key-payload"),
    pytest.param(STORED + b"\n" + STORED.replace(b'{"n": 7}',
                                                 b'{"n": 7, "dz": "x"}')
                 + b"\n", ["catalog", "search", "--dz-min", "2"], 1,
                 "line 2", id="non-integer-key-line"),
    pytest.param(STORED + b"\n" + STORED.replace(
                     b'"2026-01-01T00:00:00+00:00"', b"5") + b"\n",
                 ["catalog", "list"], 1, "line 2", id="non-string-created"),
    pytest.param(STORED + b"\n", ["catalog", "list", "--kind", "quantun"], 2,
                 "'quantun' is not one of", id="list-unknown-kind"),
])
def test_catalog_exit_codes(tmp_path, capsys, monkeypatch, store, args, code,
                            message):
    """One row per documented exit code of a catalog command, each run
    twice: without the index and then with the one the first run wrote."""
    monkeypatch.delenv("QCT_CATALOG", raising=False)
    (tmp_path / "array.json").write_text("[1, 2]")
    (tmp_path / "text_dz.json").write_text('{"n": 7, "dz": "x"}')
    cat = tmp_path / "cat.jsonl"
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    if store is not None:
        cat.write_bytes(store)
        argv = ["--catalog", str(cat)] + argv
    for _ in range(2):
        assert run_cli(argv) == code
        err = capsys.readouterr().err
        assert message in err and len(err.strip().splitlines()) == 1
        assert err.startswith({0: "warning: ", 1: "error: ",
                               2: "usage error: "}[code])


def test_non_object_payload_is_refused_and_search_still_works(tmp_path,
                                                              capsys):
    cat = str(tmp_path / "cat.jsonl")
    array = tmp_path / "arr.json"
    array.write_text("[1, 2]")
    assert run_cli(["--catalog", cat, "catalog", "put", str(array),
                    "--kind", "quantum"]) == 1
    err = capsys.readouterr().err
    assert err == "error: catalog payload must be a JSON object, not list\n"
    assert run_cli(["--catalog", cat, "catalog", "search", "--n", "7"]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("kind,args,value", [
    ("carlitz_uchiyama", {"m": 10, "delta": 31}, 64),
    ("singleton_wt", {"m": 7, "delta": 5}, 15),
    ("singleton", {"n": 10, "k": 4}, 7),
])
def test_quantum_bound_text_and_json(capsys, kind, args, value):
    argv = ["quantum", "bound", "--kind", kind]
    for key, val in args.items():
        argv += [f"--{key}", str(val)]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == f"{value}\n"
    assert run_cli([*argv, "--json"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert json.loads(out) == {"kind": kind, **args, "value": value}


@pytest.mark.parametrize("kind,given,missing", [
    ("carlitz_uchiyama", ["--delta", "31"], "--m"),
    ("carlitz_uchiyama", ["--m", "10"], "--delta"),
    ("singleton_wt", ["--delta", "5"], "--m"),
    ("singleton_wt", ["--m", "7"], "--delta"),
    ("singleton", ["--k", "4"], "--n"),
    ("singleton", ["--n", "10"], "--k"),
])
@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_quantum_bound_missing_argument_exits_two(capsys, kind, given,
                                                  missing, as_json):
    assert run_cli(["quantum", "bound", "--kind", kind, *given,
                    *as_json]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: {missing} is required for --kind {kind}\n"


@pytest.mark.parametrize("m", ["0", "-1"])
def test_quantum_bound_m_must_be_positive(capsys, m):
    assert run_cli(["quantum", "bound", "--kind", "carlitz_uchiyama",
                    "--m", m, "--delta", "3"]) == 2
    assert len(capsys.readouterr().err.strip().splitlines()) == 1


@pytest.mark.parametrize("kind,args", [
    ("singleton", ["--n", "3", "--k", "10"]),
    ("singleton", ["--n", "3", "--k", "0"]),
    ("singleton_wt", ["--m", "7", "--delta", "-9"]),
    ("singleton_wt", ["--m", "3", "--delta", "8"]),
    ("carlitz_uchiyama", ["--m", "10", "--delta", "-31"]),
    ("carlitz_uchiyama", ["--m", "10", "--delta", "1"]),
    ("carlitz_uchiyama", ["--m", "3", "--delta", "8"]),
    # an m whose bounds would not print, refused before 2^m is formed
    ("carlitz_uchiyama", ["--m", "15000", "--delta", "5"]),
    ("singleton_wt", ["--m", "15000", "--delta", "5"]),
    ("carlitz_uchiyama", ["--m", str(10 ** 12), "--delta", "5"]),
])
@pytest.mark.parametrize("as_json", [[], ["--json"]])
def test_quantum_bound_out_of_range_exits_two(capsys, kind, args, as_json):
    assert run_cli(["quantum", "bound", "--kind", kind, *args,
                    *as_json]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage error: ")
    assert len(err.splitlines()) == 1
