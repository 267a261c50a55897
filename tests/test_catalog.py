import json
import os
import random

import pytest

from qct import catalog
from qct.catalog import KINDS, Catalog, payload_id
from qct.errors import FieldError, QctError
from qct.families import rs_code
from qct.galois import prime_power


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


@pytest.mark.parametrize("key,value", [("n", "7"), ("k", 1.5), ("q", [4]),
                                       ("dz", "x"), ("dx", True)])
def test_put_refuses_non_integer_search_keys(tmp_path, key, value):
    path = tmp_path / "cat.jsonl"
    cat = Catalog(str(path))
    with pytest.raises(QctError, match=f"key '{key}' must be an integer"):
        cat.put("quantum", {"n": 7, key: value})
    assert not path.exists()
    cat.put("quantum", {"n": 7, key: None})
    assert len(cat.search()) == 1


def test_search_skips_non_integer_keys_of_an_older_index(tmp_path,
                                                         monkeypatch):
    """An index written while a payload could still hold a non-integer dz
    or dx: the load trusts it, and search leaves those rows out of its
    minimum tests without comparing them."""
    path = tmp_path / "cat.jsonl"
    monkeypatch.setattr(catalog, "_bad_search_key", lambda payload: None)
    cat = Catalog(str(path))
    good = cat.put("quantum", {"n": 7, "dz": 3, "dx": 2})
    cat.put("quantum", {"n": 7, "dz": "x", "dx": [2]})
    Catalog(str(path))
    monkeypatch.undo()
    calls = _count_parses(monkeypatch)
    cat = Catalog(str(path))
    assert calls == []
    assert [e.id for e in cat.search(dz_min=2)] == [good.id]
    assert [e.id for e in cat.search(n=7, dx_min=1)] == [good.id]
    with pytest.raises(QctError, match="payload key 'dz'"):
        cat.search(n=7)   # a hit is parsed, and its line checked


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


# -- the sidecar index --------------------------------------------------------

def _store(path, count, seed=0):
    """A seeded store of mixed quantum and classical records."""
    rng = random.Random(seed)
    cat = Catalog(str(path))
    for i in range(count):
        payload = {"n": rng.choice((7, 15, 31)), "k": rng.randint(1, 6),
                   "index": i}
        if rng.random() < 0.3:
            payload["field"] = {"p": rng.choice((2, 3)), "e": rng.randint(1, 2)}
        if rng.random() < 0.7:   # a null q still shadows a field record
            payload["q"] = rng.choice((2, 3, 4, 9, None))
        for key in ("dz", "dx"):
            if rng.random() < 0.9:
                payload[key] = rng.choice((None, *range(1, 9)))
        cat.put(rng.choice(KINDS), payload)
    return cat


STORED = json.dumps({"id": "a" * 64, "kind": "quantum", "payload": {"n": 7},
                     "created": "2026-01-01T00:00:00+00:00",
                     "inputs": []}).encode()


def _index(path):
    return path.parent / (path.name + ".idx")


def _count_parses(monkeypatch):
    calls = []
    real = catalog._parse
    monkeypatch.setattr(catalog, "_parse", lambda line: calls.append(line)
                        or real(line))
    return calls


def test_index_spares_parsing(tmp_path, monkeypatch):
    path = tmp_path / "cat.jsonl"
    _store(path, 40)
    assert not _index(path).exists()   # put never writes the index
    Catalog(str(path))
    built = _index(path).read_bytes()
    calls = _count_parses(monkeypatch)
    cat = Catalog(str(path))
    assert calls == [] and _index(path).read_bytes() == built
    eid = next(iter(cat._rows))
    assert cat.get(eid).id == eid and len(calls) == 1
    hits = cat.search(n=7, dz_min=4)
    assert hits and len(calls) == 1 + len(hits)
    cat.put("quantum", {"n": 3})
    assert _index(path).read_bytes() == built


def test_no_index_rebuilds_it(tmp_path):
    path = tmp_path / "cat.jsonl"
    want = [e.to_json() for e in _store(path, 10).list()]
    assert not _index(path).exists()
    assert [e.to_json() for e in Catalog(str(path)).list()] == want
    assert len(_index(path).read_bytes().splitlines()) == 1


def test_stale_index_gains_a_batch_for_appended_lines(tmp_path,
                                                      monkeypatch):
    path = tmp_path / "cat.jsonl"
    first = _store(path, 10)
    Catalog(str(path))
    other = tmp_path / "other.jsonl"
    added = Catalog(str(other)).put("quantum", {"n": 99, "q": 4, "dz": 9})
    with open(path, "ab") as fh:   # a valid line appended without qct
        fh.write(other.read_bytes())
    cat = Catalog(str(path))
    assert [e.id for e in cat.search(n=99, q=4)] == [added.id]
    assert len(cat.list()) == len(first.list()) + 1
    assert len(_index(path).read_bytes().splitlines()) == 2
    calls = _count_parses(monkeypatch)
    assert [e.id for e in Catalog(str(path)).search(n=99)] == [added.id]
    assert len(calls) == 1   # the hit; the load parsed nothing


@pytest.mark.parametrize("damage", ["garbage", "cut_row", "flipped_row",
                                    "directory"])
def test_bad_index_falls_back_to_a_full_parse(tmp_path, damage):
    path = tmp_path / "cat.jsonl"
    want = [e.to_json() for e in _store(path, 12).list()]
    Catalog(str(path))
    idx = _index(path)
    good = idx.read_bytes()
    if damage == "garbage":
        idx.write_bytes(b"\x00garbage\n[1, 2]\n")
    elif damage == "cut_row":   # the last row of the only batch cut short
        idx.write_bytes(good[:good.rindex(b"],[") + 10])
    elif damage == "flipped_row":   # a row's offset changed, same length
        at = good.index(b'",0,') + 2
        idx.write_bytes(good[:at] + b"1" + good[at + 1:])
    else:   # an index that can be neither read nor written
        idx.unlink()
        idx.mkdir()
    cat = Catalog(str(path))
    assert [e.to_json() for e in cat.list()] == want
    if damage != "directory":
        assert idx.read_bytes() == good   # rebuilt


@pytest.mark.parametrize("index", ["present", "stale", "missing"])
def test_edited_covered_line_is_an_error(tmp_path, index):
    path = tmp_path / "cat.jsonl"
    _store(path, 5)
    Catalog(str(path))
    if index == "stale":
        Catalog(str(path)).put("classical", {"n": 5})
    elif index == "missing":
        _index(path).unlink()
    data = bytearray(path.read_bytes())
    at = data.index(b"\n", data.index(b"\n") + 1) + 2   # inside line 3
    data[at] ^= 0x20   # the same length, no longer a catalog line
    path.write_bytes(bytes(data))
    with pytest.raises(QctError, match="line 3"):
        Catalog(str(path))


def test_cut_short_tail_with_index_is_skipped_each_load(tmp_path):
    path = tmp_path / "cat.jsonl"
    _store(path, 4)
    Catalog(str(path))
    with open(path, "ab") as fh:
        fh.write(b'{"id": "abc", "kind": "quan')
    for _ in range(2):   # the index never covers the cut-short line
        cat = Catalog(str(path))
        assert cat.skipped_tail == 5 and len(cat.list()) == 4
    cat.put("classical", {"n": 3})
    with pytest.raises(QctError, match="line 5"):
        Catalog(str(path))


def test_unterminated_last_line_covered_by_index_then_put(tmp_path):
    path = tmp_path / "cat.jsonl"
    first = Catalog(str(path)).put("classical", {"n": 5})
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    Catalog(str(path))   # the index now covers the unterminated line
    cat = Catalog(str(path))
    second = cat.put("classical", {"n": 6})
    again = Catalog(str(path))
    assert [e.id for e in again.list()] == [first.id, second.id]
    assert again.get(first.id).payload == {"n": 5}
    with open(path, "ab") as fh:
        fh.write(b"not json\n")
    with pytest.raises(QctError, match="line 3"):
        Catalog(str(path))


def _old_search(entries, n=None, k=None, q=None, dz_min=None, dx_min=None):
    """The search predicate over parsed payloads, as it was before the
    index: the reference the row filter must agree with."""
    try:
        pe = None if q is None else prime_power(q)
    except FieldError:
        pe = None
    hits = []
    for entry in entries:
        p = entry.payload
        field = p.get("field")
        field_pe = ((field.get("p"), field.get("e"))
                    if isinstance(field, dict) else None)
        if n is not None and p.get("n") != n:
            continue
        if k is not None and p.get("k") != k:
            continue
        if q is not None and (p["q"] != q if "q" in p
                              else pe is None or field_pe != pe):
            continue
        if dz_min is not None and (p.get("dz") or 0) < dz_min:
            continue
        if dx_min is not None and (p.get("dx") or 0) < dx_min:
            continue
        hits.append(entry)
    return hits


def test_index_states_give_identical_answers(tmp_path):
    path = tmp_path / "cat.jsonl"
    _store(path, 60, seed=11)
    Catalog(str(path))
    _store(path, 60, seed=12)   # now the index covers only the first half
    rng = random.Random(5)
    queries = [dict(n=rng.choice((None, 7, 15, 31)),
                    k=rng.choice((None, 2, 5)),
                    q=rng.choice((None, 2, 3, 4, 6, 8, 9)),
                    dz_min=rng.choice((None, 3, 6)),
                    dx_min=rng.choice((None, 2, 5))) for _ in range(40)]

    def answers(cat):
        everything = cat.list()
        searches = [[e.to_json() for e in cat.search(**query)]
                    for query in queries]
        for query, got in zip(queries, searches):
            assert got == [e.to_json()
                           for e in _old_search(everything, **query)]
        return ([e.to_json() for e in everything],
                {kind: [e.id for e in cat.list(kind)] for kind in KINDS},
                searches, [cat.get(e.id).to_json() for e in everything])

    stale = answers(Catalog(str(path)))
    present = answers(Catalog(str(path)))
    _index(path).unlink()
    missing = answers(Catalog(str(path)))
    assert stale == present == missing
    assert sum(map(len, stale[2])) > 40


def test_get_checks_the_id_of_the_line_it_parses(tmp_path):
    path = tmp_path / "cat.jsonl"
    with open(path, "wb") as fh:   # three lines of one length
        for i in range(3):
            fh.write(STORED.replace(b"a" * 64, b"%064d" % i) + b"\n")
    cat = Catalog(str(path))
    path.write_bytes(b"".join(path.read_bytes().splitlines(
        keepends=True)[::-1]))   # rewritten while open
    first = "%064d" % 0
    assert cat.get("%064d" % 1).id == "%064d" % 1
    with pytest.raises(QctError, match=f"no longer holds entry {first}"):
        cat.get(first)
