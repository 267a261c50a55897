import json

import pytest
from click.testing import CliRunner

from qct.cli import main, run_cli


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
    for path in (missing, no_field, not_json, not_object, bad_field):
        capsys.readouterr()
        assert run_cli(["code", "distance", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load {path}")
        assert len(err.strip().splitlines()) == 1
    assert run_cli(["code", "dual", str(no_field)]) == 1
    assert "missing field 'field'" in capsys.readouterr().err
    assert run_cli(["--catalog", str(tmp_path / "cat.jsonl"), "catalog", "put",
                    missing, "--kind", "classical"]) == 1


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_must_be_positive(threads):
    assert run_cli(["--threads", threads, "audit", "table4"]) == 2
