import json
import os
import random

import pytest

from qct import catalog
from qct.catalog import KINDS, Catalog, payload_id
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


def _line(kind, payload, day, eid=None):
    """A catalog line as put writes it, created on 2026-01-<day>."""
    return json.dumps({"id": eid or payload_id(payload), "kind": kind,
                       "payload": payload, "inputs": [],
                       "created": f"2026-01-{day:02d}T00:00:00+00:00"},
                      sort_keys=True).encode() + b"\n"


STORED = json.dumps({"id": "a" * 64, "kind": "quantum", "payload": {"n": 7},
                     "created": "2026-01-01T00:00:00+00:00",
                     "inputs": []}).encode()


def _index(path):
    return path.parent / (path.name + ".idx")


def _batches(path):
    """The number of batches in the index of `path`: each is a SHA-256, a
    JSON header and the raw rows it counts, and ends with a newline."""
    data, count, at = _index(path).read_bytes(), 0, 0
    while at < len(data):
        gap = data.index(b" ", at + 65)
        rows = json.loads(data[at + 65:gap])["rows"]
        at = gap + 1 + rows * catalog.ROW.itemsize + 1
        assert data[at - 1:at] == b"\n"
        count += 1
    return count


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
    eid = json.loads(path.read_bytes().split(b"\n")[0])["id"]
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
    assert _batches(path) == 1


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
    assert _batches(path) == 2
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
    rows_at = good.index(b" ", 65) + 1   # the only batch's rows
    if damage == "garbage":
        idx.write_bytes(b"\x00garbage\n[1, 2]\n")
    elif damage == "cut_row":   # cut short inside the last row
        idx.write_bytes(good[:-1 - catalog.ROW.itemsize // 2])
    elif damage == "flipped_row":   # one byte of row 1's offset, same length
        at = rows_at + catalog.ROW.itemsize + catalog.ROW.fields["start"][1]
        idx.write_bytes(good[:at] + bytes([good[at] ^ 1]) + good[at + 1:])
    else:   # an index that can be neither read nor written
        idx.unlink()
        idx.mkdir()
    cat = Catalog(str(path))
    assert [e.to_json() for e in cat.list()] == want
    if damage != "directory":
        assert idx.read_bytes() == good   # rebuilt


def test_cut_short_last_batch_is_dropped(tmp_path, monkeypatch):
    """A last index batch that runs past the end of the index is a write
    cut short: the batches before it still count, so only the lines past
    them are parsed, and the index is written again as one batch."""
    path = tmp_path / "cat.jsonl"
    want = [e.to_json() for e in _store(path, 6).list()]
    Catalog(str(path))
    added = Catalog(str(path)).put("quantum", {"n": 99})
    Catalog(str(path))
    assert _batches(path) == 2
    _index(path).write_bytes(_index(path).read_bytes()[:-10])
    calls = _count_parses(monkeypatch)
    cat = Catalog(str(path))
    assert len(calls) == 1 and _batches(path) == 1
    assert [e.to_json() for e in cat.list()] == want + [added.to_json()]


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


def _is_power(q, p, e) -> bool:
    """Whether q = p^e for integers p >= 2 and e, by repeated division of
    q by p: no power is formed, and no size cap applies."""
    if not (isinstance(p, int) and isinstance(e, int) and p >= 2):
        return False
    count = 0
    while q > 1 and q % p == 0:
        q //= p
        count += 1
    return q == 1 and count == e


def _old_search(entries, n=None, k=None, q=None, dz_min=None, dx_min=None):
    """The search predicate over parsed payloads, one entry at a time: the
    reference the row filter must agree with.  A payload without a q key
    matches q when its field record's p^e is q."""
    hits = []
    for entry in entries:
        p = entry.payload
        field = p.get("field")
        if n is not None and p.get("n") != n:
            continue
        if k is not None and p.get("k") != k:
            continue
        if q is not None and (p["q"] != q if "q" in p else not (
                isinstance(field, dict)
                and _is_power(q, field.get("p"), field.get("e")))):
            continue
        if dz_min is not None and (p.get("dz") or 0) < dz_min:
            continue
        if dx_min is not None and (p.get("dx") or 0) < dx_min:
            continue
        hits.append(entry)
    return hits


MAX = (1 << 63) - 1   # the largest key magnitude a row holds

# payloads at the edges of a row: q null against q absent over the same
# field record, a field record with a null p, and keys of magnitude MAX
EDGE_PAYLOADS = [
    {"n": 7, "k": 2, "q": None, "field": {"p": 2, "e": 1}},
    {"n": 7, "k": 2, "field": {"p": 2, "e": 1}},
    {"n": 7, "k": 5, "field": {"p": None, "e": 1}, "dz": 4},
    {"n": MAX, "k": -MAX, "q": 4, "dz": MAX, "dx": -MAX},
    {"n": -MAX, "q": -MAX, "dz": -MAX, "dx": MAX},
    # a field above galois.SIZE_CAP, matched by q = 2^20 all the same
    {"n": 7, "k": 3, "field": {"p": 2, "e": 20}},
]


def _with_kind(line, kind):
    """The same entry, id and created time under another kind."""
    rec = json.loads(line)
    rec["kind"] = kind
    return json.dumps(rec, sort_keys=True).encode() + b"\n"


def test_index_states_give_identical_answers(tmp_path):
    path = tmp_path / "cat.jsonl"
    cat = _store(path, 60, seed=11)
    for i, payload in enumerate(EDGE_PAYLOADS):
        cat.put(KINDS[i % 3], payload)
    Catalog(str(path))
    cat = _store(path, 60, seed=12)   # the index covers the first half
    for i, payload in enumerate(EDGE_PAYLOADS):
        cat.put(KINDS[i % 3], dict(payload, index=i))
    lines = path.read_bytes().splitlines(keepends=True)
    with open(path, "ab") as fh:   # ids seen twice, in and past the index
        fh.write(_with_kind(lines[3], "report") + lines[70]
                 + _with_kind(lines[62], "quantum"))
    rng = random.Random(5)
    queries = [dict(n=rng.choice((None, 7, 15, 31)),
                    k=rng.choice((None, 2, 5)),
                    q=rng.choice((None, 2, 3, 4, 6, 8, 9)),
                    dz_min=rng.choice((None, 3, 6)),
                    dx_min=rng.choice((None, 2, 5))) for _ in range(40)]
    queries += [dict(n=MAX), dict(n=-MAX, q=-MAX), dict(k=-MAX, q=4),
                dict(n=MAX + 1), dict(k=-MAX - 1), dict(q=-MAX - 1),
                dict(q=2, k=2), dict(q=2, n=7, dz_min=4), dict(dz_min=MAX),
                dict(dz_min=-MAX), dict(dx_min=MAX + 1),
                dict(dx_min=-MAX - 1, n=7), dict(q=1 << 20),
                dict(q=(1 << 20) + 1)]
    # a dict keyed by id: each id at its first line, with its last line
    want = {}
    for line in path.read_bytes().splitlines():
        want[json.loads(line)["id"]] = json.loads(line)
    want = sorted(want.values(), key=lambda rec: rec["created"])

    def answers(cat):
        everything = cat.list()
        assert [e.to_json() for e in everything] == want
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
    # the fixed queries: MAX keys match, keys past MAX (-2^63 among them,
    # a row's null) match nothing, a floor of -MAX passes every entry, 132
    # after the 3 repeated ids, q = 2^20 finds both GF(2^20) records and
    # 2^20 + 1 = 17 * 61681, not a prime power, finds nothing
    assert [len(hits) for hits in stale[2][40:]] == [2, 2, 2, 0, 0, 0, 6, 6,
                                                      2, 132, 0, 52, 2, 0]


@pytest.mark.parametrize("kind,payload,eid,put_error,line_error", [
    ("quantum", {"n": 1 << 63}, None, "key 'n' must be an integer",
     "payload key 'n'"),
    ("quantum", {"dz": -(1 << 63)}, None, "key 'dz' must be an integer",
     "payload key 'dz'"),
    ("classical", {"field": {"p": 1 << 63, "e": 1}}, None,
     "key 'field.p' must be an integer", "payload key 'field.p'"),
    ("classical", {"field": {"p": 2, "e": "1"}}, None,
     "key 'field.e' must be an integer", "payload key 'field.e'"),
    ("code", {"n": 7}, None, "unknown catalog kind 'code'",
     "unknown kind 'code'"),
    ("quantum", {"n": 7}, "A" * 64, None, "id is not 64 lowercase hex"),
    ("quantum", {"n": 7}, "xyz", None, "id is not 64 lowercase hex"),
], ids=["n-2^63", "dz-minus-2^63", "field-p-2^63", "field-e-text",
        "unknown-kind", "upper-case-id", "short-id"])
def test_what_a_row_cannot_hold_is_refused(tmp_path, kind, payload, eid,
                                           put_error, line_error):
    """A key no int64 row holds exactly, an unknown kind or an id not of
    payload_id's form: put refuses it, and a line holding it is a bad line,
    past an index as without one."""
    path = tmp_path / "cat.jsonl"
    cat = Catalog(str(path))
    cat.put("quantum", {"n": 7, "k": 1})
    if put_error:
        with pytest.raises(QctError, match=put_error):
            cat.put(kind, payload)
    Catalog(str(path))   # an index of the good line
    with open(path, "ab") as fh:
        fh.write(_line(kind, payload, 2, eid))
    with pytest.raises(QctError, match=f"line 2: {line_error}"):
        Catalog(str(path))
    _index(path).unlink()
    with pytest.raises(QctError, match=f"line 2: {line_error}"):
        Catalog(str(path))


# An index written before rows were binary, by the line format then: the
# SHA-256 of the rest of the line, then the batch with its rows as JSON
# lists.  It covers the five lines of OLD_STORE.
OLD_JSON_INDEX = (
    b'a4317c4ee9088ace3c87438f5850e13c784cbe1ef7aff6d0172c975002449714 '
    b'{"from":0,"to":987,"lines":5,"sha256":"aa3ef4af533f22cbab2815ebe3534a9'
    b'95b1092d6c26c8186bc750728dfbddb9b","rows":[["b6805811232e2beb0bb50ffbe3'
    b'0a43952f8c25b3a159d7f093dfee806c6b6ff9","quantum",0,203,7,1,[2],3,3,nul'
    b'l],["d208026d3a5514d70177678ede581547243c02e8b9f3c9cc01ad358826bb5aa2",'
    b'"quantum",203,400,7,1,[null],5,null,null],["e7d6e5db5a321926b71942cc53'
    b'986ad72b581a2ae5201f8212048c0e2f8f7bac","classical",400,606,7,4,null,nu'
    b'll,null,[2,1]],["9e14c9da48b202489410ed24b3152d4992fdf0df84f8edd87c37b6'
    b'722fe58ecb","classical",606,815,7,2,null,null,null,[null,1]],["1633902c'
    b'6cbba5e7770dbed172df754a25078bb76efe1f23474edc87f1a47655","report",815,'
    b'987,null,null,null,null,null,null]]}\n')
OLD_STORE = [("quantum", {"n": 7, "k": 1, "q": 2, "dz": 3, "dx": 3}),
             ("quantum", {"n": 7, "k": 1, "q": None, "dz": 5}),
             ("classical", {"n": 7, "k": 4, "field": {"p": 2, "e": 1}}),
             ("classical", {"n": 7, "k": 2, "field": {"p": None, "e": 1}}),
             ("report", {"rows": []})]
# the same format over a dz that is not an integer, from before put and the
# load refused one
OLD_NON_INTEGER_INDEX = (
    b'27f24b29152048314828ee520d2cc932bacec4929b8e5b869a38ef36b1ab6efa '
    b'{"from":0,"to":378,"lines":2,"sha256":"e09662570eecbb6e50f24d7f1840273'
    b'e6c13ca179050c817d1d8a9f042914387","rows":[["007f6459e5dcbba97a90a4f210'
    b'be87c4e9bf1daf845584b3ae0cb8158fe6f988","quantum",0,187,7,null,null,3,2'
    b',null],["9efd74d8b5fa84b3ba354a0202b865103d48528ec3e026bfaa85b3de64ba49'
    b'ee","quantum",187,378,7,null,null,"x",[2],null]]}\n')


def test_old_json_index_is_rebuilt_once(tmp_path, monkeypatch):
    path = tmp_path / "cat.jsonl"
    path.write_bytes(b"".join(_line(kind, payload, day)
                              for day, (kind, payload)
                              in enumerate(OLD_STORE, 1)))
    queries = [dict(), dict(q=2), dict(n=7, k=1), dict(q=2, dz_min=3),
               dict(dx_min=3), dict(k=2, q=2)]

    def answers():
        cat = Catalog(str(path))
        return ([e.to_json() for e in cat.list()],
                [[e.id for e in cat.search(**query)] for query in queries])

    want = answers()   # no index
    assert [len(ids) for ids in want[1]] == [5, 2, 2, 1, 1, 0]
    _index(path).write_bytes(OLD_JSON_INDEX)
    calls = _count_parses(monkeypatch)
    assert answers() == want
    assert len(calls) == 5 + 5 + 11   # the rebuild, list() and the hits
    rebuilt = _index(path).read_bytes()
    assert rebuilt != OLD_JSON_INDEX and _batches(path) == 1
    calls.clear()
    assert answers() == want and len(calls) == 5 + 11
    assert _index(path).read_bytes() == rebuilt


def test_non_integer_keys_under_an_older_index_are_a_bad_line(tmp_path):
    """A store written while a payload could still hold a non-integer dz or
    dx, with its JSON-row index of that time: the index is not read, so the
    full parse refuses the line; no such key reaches a comparison."""
    path = tmp_path / "cat.jsonl"
    path.write_bytes(_line("quantum", {"n": 7, "dz": 3, "dx": 2}, 1)
                     + _line("quantum", {"n": 7, "dz": "x", "dx": [2]}, 2))
    _index(path).write_bytes(OLD_NON_INTEGER_INDEX)
    with pytest.raises(QctError, match="line 2: payload key 'dz'"):
        Catalog(str(path))


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
