import json
import os

import pytest

from qct.catalog import Catalog, payload_id
from qct.errors import QctError
from qct.families import rs_code


def test_put_is_idempotent(tmp_path):
    path = tmp_path / "cat.jsonl"
    cat = Catalog(str(path))
    payload = {"n": 7, "k": 3, "q": 2, "dz": 3, "dx": 2}
    e1 = cat.put("quantum", payload)
    e2 = cat.put("quantum", payload)
    assert e1.id == e2.id == payload_id(payload)
    assert len(path.read_text().strip().splitlines()) == 1


def test_get_and_missing(tmp_path):
    cat = Catalog(str(tmp_path / "cat.jsonl"))
    entry = cat.put("classical", {"n": 3, "k": 2})
    assert cat.get(entry.id).payload == {"n": 3, "k": 2}
    with pytest.raises(QctError):
        cat.get("0" * 64)


def test_inputs_must_exist(tmp_path):
    cat = Catalog(str(tmp_path / "cat.jsonl"))
    with pytest.raises(QctError):
        cat.put("quantum", {"n": 1}, inputs=["missing"])
    base = cat.put("classical", {"n": 9})
    child = cat.put("quantum", {"n": 9, "k": 1}, inputs=[base.id])
    assert child.inputs == [base.id]


def test_reload_from_disk(tmp_path):
    path = str(tmp_path / "cat.jsonl")
    Catalog(path).put("quantum", {"n": 45, "k": 24, "q": 4, "dz": 6, "dx": 4})
    again = Catalog(path)
    assert len(again.list()) == 1
    assert again.list("quantum")[0].payload["n"] == 45
    assert again.list("report") == []


def test_search_predicates(tmp_path):
    cat = Catalog(str(tmp_path / "cat.jsonl"))
    cat.put("quantum", {"n": 45, "k": 24, "q": 4, "dz": 6, "dx": 4})
    cat.put("quantum", {"n": 45, "k": 22, "q": 4, "dz": 8, "dx": 4})
    cat.put("quantum", {"n": 31, "k": 14, "q": 16, "dz": 7, "dx": 3})
    assert len(cat.search(n=45)) == 2
    assert len(cat.search(n=45, dz_min=7)) == 1
    assert len(cat.search(q=16)) == 1
    assert len(cat.search(k=24, q=4)) == 1
    assert cat.search(n=99) == []
    # a classical record carries its field as p and e, not as q
    cat.put("classical", rs_code(4, 2).to_json())
    assert [e.kind for e in cat.search(q=4)] == ["quantum", "quantum",
                                                 "classical"]
    assert [e.kind for e in cat.search(n=3, q=4)] == ["classical"]
    assert cat.search(n=3, q=2) == [] and cat.search(n=3, q=6) == []


def test_corrupt_file_surfaced_with_path(tmp_path):
    path = tmp_path / "cat.jsonl"
    path.write_text("not json\n")
    with pytest.raises(QctError) as err:
        Catalog(str(path))
    assert "cat.jsonl" in str(err.value)


def test_id_deterministic_over_key_order():
    assert payload_id({"a": 1, "b": 2}) == payload_id({"b": 2, "a": 1})


def test_truncated_tail_is_skipped_and_next_put_starts_fresh(tmp_path):
    path = tmp_path / "cat.jsonl"
    cat = Catalog(str(path))
    kept = cat.put("quantum", {"n": 7, "k": 1, "q": 2, "dz": 3, "dx": 3})
    with open(path, "ab") as fh:   # a write cut short mid-line
        fh.write(b'{"id": "abc", "kind": "quan')
    again = Catalog(str(path))
    assert again.skipped_tail == 2
    assert [e.id for e in again.list()] == [kept.id]
    added = again.put("classical", {"n": 3, "k": 2})
    lines = path.read_bytes().split(b"\n")
    assert lines[1] == b'{"id": "abc", "kind": "quan' and lines[-1] == b""
    assert json.loads(lines[2])["id"] == added.id
    # the cut-short line is now terminated, so it is an error like any other
    with pytest.raises(QctError, match="line 2"):
        Catalog(str(path))


def test_unterminated_valid_last_line_is_kept(tmp_path):
    path = tmp_path / "cat.jsonl"
    first = Catalog(str(path)).put("classical", {"n": 5})
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    cat = Catalog(str(path))
    assert cat.skipped_tail is None and cat.get(first.id)
    second = cat.put("classical", {"n": 6})
    assert {e.id for e in Catalog(str(path)).list()} == {first.id, second.id}


@pytest.mark.parametrize("text", ['not json\n{"id": 1}\n', "[1]\n",
                                  '{"id": "x"}\n'])
def test_corrupt_inner_line_is_an_error(tmp_path, text):
    path = tmp_path / "cat.jsonl"
    path.write_text(text)
    with pytest.raises(QctError, match="line 1"):
        Catalog(str(path))


def test_put_is_one_write_call(tmp_path, monkeypatch):
    """A long report line goes to the file in a single os.write."""
    calls = []
    real = os.write
    monkeypatch.setattr(os, "write", lambda fd, b: calls.append(len(b))
                        or real(fd, b))
    path = tmp_path / "cat.jsonl"
    entry = Catalog(str(path)).put("report", {"rows": ["x" * 200_000]})
    assert len(calls) == 1 and calls[0] == path.stat().st_size
    assert Catalog(str(path)).get(entry.id).payload["rows"][0] == "x" * 200_000
