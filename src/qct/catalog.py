"""Persistent JSON-lines catalog of constructed codes and audit reports.

Entries are content-addressed: the id is the SHA-256 hash of the canonical
payload serialization, so putting the same record twice is a no-op.

A sidecar index, `<catalog>.idx`, spares a load the parse of lines already
checked.  It is only a cache.  It is a chain of batches, each three fields
split by spaces and ended by a newline: the SHA-256 of the rest of the
batch, a JSON header and the batch's rows as raw bytes.  The header holds
the byte range [from, to) of the catalog lines the batch covers, the number
of newlines before `to`, the SHA-256 of the catalog's first `to` bytes and
the number of rows.  The rows are one fixed-width little-endian `ROW`
record per catalog line: the id as 32 bytes, the kind's place in
KINDS, a state byte (_HAS_Q: the payload has a q key, even a null one;
_HAS_FIELD: its field is an object), the line's byte range, and n, k, q, dz,
dx and the field's p and e as int64, _NULL when null or absent.  So a line
is valid only if its id is 64 lowercase hex digits, its kind is in KINDS,
and each of those keys is null or an integer of magnitude below 2^63.  A
load reads the rows with one `np.frombuffer`, and `search` filters them as
columns.

The batches that chain from byte 0 are trusted only while that prefix still
has the recorded hash, so any edit of a covered line makes the whole index
stale.  A load parses the lines past the covered prefix and appends their
batch; a missing, bad or stale index costs one full parse and is rebuilt.
An index in an older format, such as JSON rows, is bad in that sense and is
rebuilt once.  `put` never touches the index, and a failure to write it is
ignored.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone

import numpy as np

from .errors import QctError

DEFAULT_PATH = "qct_catalog.jsonl"

KINDS = ("classical", "quantum", "report")
SEARCH_KEYS = ("n", "k", "q", "dz", "dx")   # integer or null in a payload

_KEY_LIMIT = 1 << 63   # a key is null or an integer of smaller magnitude
_NULL = -_KEY_LIMIT   # a null or absent key in a row
_KEY_NAMES = SEARCH_KEYS + ("field.p", "field.e")
_ID = re.compile("[0-9a-f]{64}")
_HAS_Q, _HAS_FIELD = 1, 2   # bits of a row's state byte
ROW = np.dtype([("id", "V32"), ("kind", "u1"), ("state", "u1"),
                ("start", "<i8"), ("end", "<i8"),
                *((key, "<i8") for key in SEARCH_KEYS + ("p", "e"))])


def payload_id(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class CatalogEntry:
    id: str
    kind: str
    payload: dict
    created: str
    inputs: list = dc_field(default_factory=list)

    def to_json(self) -> dict:
        return {"id": self.id, "kind": self.kind, "payload": self.payload,
                "created": self.created, "inputs": self.inputs}


class Catalog:
    """Append-only store; one JSON entry per line."""

    def __init__(self, path: str = DEFAULT_PATH):
        self.path = path
        self.index_path = path + ".idx"
        self._rows = np.empty(0, ROW)   # one per loaded id, in file order
        self._added = {}   # id -> CatalogEntry put through this object
        self.skipped_tail = None   # line number of a cut-short last line
        self._at_line_start = True
        self._load()

    def _load(self):
        """Take the rows of the covered prefix from the index, if its hash
        still holds, and parse the rest; then extend or rebuild the index."""
        digest = hashlib.sha256()
        try:
            with open(self.path, "rb") as fh:
                index = _read_index(self.index_path)
                if index is not None:
                    covered, lines, old_rows, sha, append = index
                    prefix = _hash_prefix(fh, covered)
                    if prefix and prefix[0].hexdigest() == sha:
                        digest, self._at_line_start = prefix
                    else:
                        index = None
                if index is None:
                    covered, lines, append = 0, 0, False
                    old_rows = np.empty(0, ROW)
                    fh.seek(0)
                new_rows, end, newlines = self._scan(fh, covered, lines + 1,
                                                     digest)
        except FileNotFoundError:
            return
        except OSError as exc:
            raise QctError(f"cannot read catalog {self.path}: {exc}")
        rows = np.concatenate([old_rows, new_rows])
        self._rows = _one_row_per_id(rows)
        if end > covered:
            header = {"from": covered if append else 0, "to": end,
                      "lines": lines + newlines, "sha256": digest.hexdigest()}
            _write_index(self.index_path, header,
                         new_rows if append else rows, append)

    def _scan(self, fh, offset: int, number: int, digest):
        """Parse the lines from `fh`'s position, byte `offset` and line
        `number`, to the end.  An unparsable last line with no newline is a
        write cut short: it is skipped and named in `skipped_tail`, and the
        next put starts on a fresh line.  Any other bad line is an error.
        Returns the index rows, the end of the last line kept and the
        number of newlines kept; the kept bytes go into `digest`."""
        rows, newlines = [], 0
        for number, line in enumerate(fh, number):
            end = offset + len(line)
            if line.strip():
                try:
                    entry, values = _parse(line)
                except (ValueError, KeyError, TypeError) as exc:
                    if line.endswith(b"\n"):
                        raise QctError(f"cannot read catalog {self.path}: "
                                       f"line {number}: {exc}")
                    self.skipped_tail = number
                    self._at_line_start = False
                    break
                rows.append(_row(entry, offset, end, values))
            digest.update(line)
            self._at_line_start = line.endswith(b"\n")
            newlines += self._at_line_start
            offset = end
        return np.array(rows, ROW), offset, newlines

    def _find(self, eid) -> np.ndarray:
        """The loaded row of `eid`, as an array of at most one row."""
        if not _is_id(eid):
            return self._rows[:0]
        return self._rows[self._rows["id"] == np.void(bytes.fromhex(eid))]

    def _has(self, eid) -> bool:
        return eid in self._added or len(self._find(eid)) > 0

    def _all_rows(self) -> np.ndarray:
        """The loaded rows, then those of the entries put through this
        object; put itself never copies the loaded rows."""
        if not self._added:
            return self._rows
        return np.concatenate([self._rows, np.array(
            [_row(entry, -1, -1, _key_values(entry.payload))
             for entry in self._added.values()], ROW)])

    def _read(self, rows) -> list:
        """The entries of `rows`: each stored line is parsed from its byte
        range, and must hold the entry it is indexed under."""
        ids = rows["id"].tobytes().hex()
        eids = [ids[i:i + 64] for i in range(0, len(ids), 64)]
        found = {e: self._added[e] for e in eids if e in self._added}
        todo = [(eid, start, end) for eid, start, end
                in zip(eids, rows["start"].tolist(), rows["end"].tolist())
                if eid not in found]
        if todo:
            try:
                with open(self.path, "rb") as fh:
                    for eid, start, end in todo:
                        fh.seek(start)
                        try:
                            entry = _parse(fh.read(end - start))[0]
                            why = (None if entry.id == eid
                                   else f"no longer holds entry {eid}")
                        except (ValueError, KeyError, TypeError) as exc:
                            why = f"holds no valid entry ({exc})"
                        if why:
                            raise QctError(
                                f"cannot read catalog {self.path}: byte "
                                f"{start} {why}; "
                                f"delete {self.index_path} if this persists")
                        found[eid] = entry
            except OSError as exc:
                raise QctError(f"cannot read catalog {self.path}: {exc}")
        return [found[e] for e in eids]

    def put(self, kind: str, payload: dict, inputs=()) -> CatalogEntry:
        if kind not in KINDS:
            raise QctError(f"unknown catalog kind {kind!r}")
        if not isinstance(payload, dict):
            raise QctError("catalog payload must be a JSON object, not "
                           f"{type(payload).__name__}")
        try:
            _key_values(payload)
        except TypeError as exc:
            raise QctError(f"catalog {exc}")
        inputs = list(inputs)
        for ref in inputs:
            if not self._has(ref):
                raise QctError(f"input id {ref} not found in catalog")
        eid = payload_id(payload)
        if self._has(eid):
            return self.get(eid)
        entry = CatalogEntry(eid, kind, payload,
                             datetime.now(timezone.utc).isoformat(), inputs)
        line = json.dumps(entry.to_json(), sort_keys=True) + "\n"
        if not self._at_line_start:
            line = "\n" + line
        data = line.encode()
        try:
            # one append-mode write, so a line is never split between calls
            fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                         0o666)
            try:
                written = os.write(fd, data)
            finally:
                os.close(fd)
        except OSError as exc:
            raise QctError(f"cannot write catalog {self.path}: {exc}")
        if written != len(data):
            raise QctError(f"cannot write catalog {self.path}: wrote "
                           f"{written} of {len(data)} bytes")
        self._at_line_start = True
        self._added[eid] = entry
        return entry

    def get(self, eid: str) -> CatalogEntry:
        if eid in self._added:
            return self._added[eid]
        row = self._find(eid)
        if not len(row):
            raise QctError(f"id {eid} not found in catalog {self.path}")
        return self._read(row)[0]

    def list(self, kind: str | None = None):
        rows = self._all_rows()
        if kind is not None:
            rows = rows[rows["kind"] == (KINDS.index(kind) if kind in KINDS
                                         else len(KINDS))]
        return sorted(self._read(rows), key=lambda e: e.created)

    def search(self, n=None, k=None, q=None, dz_min=None, dx_min=None):
        """Match quantum/classical payloads on parameters.  A payload
        without a `q` key matches q when its field record's (p, e) has
        p ** e == q, p >= 2 and e >= 1, at any size: a field above
        galois.SIZE_CAP is matched too.  The index rows are filtered as
        columns; only the hits are parsed."""
        rows = self._all_rows()
        hit = np.ones(len(rows), dtype=bool)
        for key, value in (("n", n), ("k", k)):
            if value is not None:
                hit &= _equal(rows[key], value)
        if q is not None:
            p, e = rows["p"], rows["e"]
            # p >= 2, so p ** e == q needs e <= q.bit_length(): only the
            # distinct (p, e) under that bound are raised to a power
            field = ((rows["state"] & _HAS_FIELD != 0) & (p >= 2) & (e >= 1)
                     & (e <= q.bit_length()))
            on_field = np.zeros(len(rows), dtype=bool)
            for pair in set(zip(p[field].tolist(), e[field].tolist())):
                if pair[0] ** pair[1] == q:
                    on_field |= (p == pair[0]) & (e == pair[1])
            hit &= np.where(rows["state"] & _HAS_Q != 0,
                            _equal(rows["q"], q), on_field)
        for key, floor in (("dz", dz_min), ("dx", dx_min)):
            if floor is not None:   # a null or missing value counts as 0
                hit &= np.where(rows[key] == _NULL, 0, rows[key]) >= floor
        return sorted(self._read(rows[hit]), key=lambda e: e.created)


def _is_id(eid) -> bool:
    """Whether `eid` has the form payload_id gives: 64 lowercase hex digits."""
    return isinstance(eid, str) and _ID.fullmatch(eid) is not None


def _parse(line: bytes):
    """The entry on a catalog line and its _key_values.  A line that holds
    no valid entry raises ValueError, KeyError or TypeError."""
    rec = json.loads(line.decode())
    entry = CatalogEntry(rec["id"], rec["kind"], rec["payload"],
                         rec["created"], rec.get("inputs", []))
    if not _is_id(entry.id):
        raise ValueError("id is not 64 lowercase hex digits")
    if entry.kind not in KINDS:
        raise ValueError(f"unknown kind {entry.kind!r}")
    if not isinstance(entry.payload, dict):
        raise TypeError("payload is not a JSON object")
    if not isinstance(entry.created, str):
        raise TypeError("created is not a string")
    return entry, _key_values(entry.payload)


def _key_values(payload: dict) -> list:
    """What `search` compares of a payload, in _KEY_NAMES order: n, k, q,
    dz, dx and its field's p and e, _NULL where null, absent or the field
    is not an object.  A value that is neither null nor an int (not a
    bool) of magnitude below 2^63 raises TypeError naming its key."""
    field = payload.get("field")
    values = [*map(payload.get, SEARCH_KEYS),
              *(map(field.get, ("p", "e")) if isinstance(field, dict)
                else (None, None))]
    for i, value in enumerate(values):
        if value is None:
            values[i] = _NULL
        elif type(value) is not int or not -_KEY_LIMIT < value < _KEY_LIMIT:
            raise TypeError(f"payload key {_KEY_NAMES[i]!r} must be an "
                            f"integer of magnitude below 2^63 or null, not "
                            f"{value!r}")
    return values


def _equal(column: np.ndarray, value) -> np.ndarray:
    """The rows whose key equals `value`; a null or absent key equals
    nothing."""
    return (column == value) & (column != _NULL)


def _row(entry: CatalogEntry, start: int, end: int, values: list) -> tuple:
    """An entry's index row, a ROW record: id, kind, state, the byte range
    of its line and its _key_values."""
    p = entry.payload
    return (bytes.fromhex(entry.id), KINDS.index(entry.kind),
            _HAS_Q * ("q" in p) | _HAS_FIELD * isinstance(p.get("field"), dict),
            start, end, *values)


def _one_row_per_id(rows: np.ndarray) -> np.ndarray:
    """Each id once, at the place of its first line with the row of its
    last line, as a dict keyed by id would keep them.  Ids whose first 8
    bytes all differ are all distinct, so that case costs one sort."""
    head = np.sort(np.frombuffer(rows["id"].tobytes(), "<u8")[::4])
    if not (head[1:] == head[:-1]).any():
        return rows
    last = {}
    for i, eid in enumerate(rows["id"].tolist()):
        last[eid] = i
    return rows[list(last.values())]


def _hash_prefix(fh, size: int):
    """The SHA-256 of the next `size` bytes of `fh` and whether they end a
    line, or None when the file is shorter.  The bytes go through one 64 KB
    buffer: reading a large prefix whole would allocate, and fault in, a
    fresh copy of it on every load."""
    digest, buf = hashlib.sha256(), memoryview(bytearray(1 << 16))
    got = 0
    while size > 0:
        got = fh.readinto(buf[:min(size, len(buf))])
        if not got:
            return None
        digest.update(buf[:got])
        size -= got
    return (digest, buf[got - 1] == 10) if got else None


def _read_index(path: str):
    """The part of the index at `path` that chains from byte 0, as (covered,
    newlines, rows, sha256, appendable), or None when there is none.
    Each batch is checked against its own SHA-256, so a batch that fails
    its checksum, or is not a header and the rows it counts, voids the
    whole index.  A last batch that runs past the end is a write cut short
    and is dropped.  Batches are taken while each starts where the last one
    taken ends.  The index may be appended to only if it ends with the last
    batch taken."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        view = memoryview(data)   # slices of it are not copies
        batches, at = [], 0
        while (gap := data.find(b" ", at + 65)) >= 0:   # header, then rows
            batch = json.loads(data[at + 65:gap])
            if batch["rows"] < 0:
                raise ValueError("index batch has a negative row count")
            end = gap + 1 + batch["rows"] * ROW.itemsize
            if end >= len(data):
                break   # cut short
            if data[end] != 10 or hashlib.sha256(view[at + 65:end]) \
                    .hexdigest().encode() != data[at:at + 64]:
                raise ValueError("index batch fails its checksum")
            batches.append((batch, view[gap + 1:end]))
            at = end + 1
        covered, newlines, parts, sha, last = 0, 0, [], None, None
        for i, (batch, rows) in enumerate(batches):
            to = batch["to"]
            if batch["from"] != covered or not covered <= to:
                continue
            parts.append(rows)
            covered, newlines, sha, last = to, batch["lines"], \
                batch["sha256"], i
        rows = np.frombuffer(b"".join(parts), ROW)
    except (OSError, ValueError, TypeError, KeyError):
        return None
    if last is None:
        return None
    return covered, newlines, rows, sha, at == len(data) and \
        last == len(batches) - 1


def _write_index(path: str, header: dict, rows: np.ndarray, append: bool):
    """Append one batch, or rewrite the index as that one batch."""
    text = (json.dumps({**header, "rows": len(rows)}, separators=(",", ":"))
            .encode() + b" " + rows.tobytes())
    data = hashlib.sha256(text).hexdigest().encode() + b" " + text + b"\n"
    try:
        with open(path, "ab" if append else "wb") as fh:
            fh.write(data)
    except OSError:
        pass   # the index is only a cache
