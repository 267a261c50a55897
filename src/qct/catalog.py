"""Persistent JSON-lines catalog of constructed codes and audit reports.

Entries are content-addressed: the id is the SHA-256 hash of the canonical
payload serialization, so putting the same record twice is a no-op.

A sidecar index, `<catalog>.idx`, spares a load the parse of lines already
checked.  It is only a cache.  Each of its lines is one batch: the rows (id,
kind, byte range, search keys) of the catalog lines in bytes [from, to),
the number of newlines before `to`, and the SHA-256 of the catalog's first
`to` bytes.  The batches that chain from byte 0 are trusted only while that
prefix still has the recorded hash, so any edit of a covered line makes the
whole index stale.  A load parses the lines past the covered prefix and
appends their batch; a missing, bad or stale index costs one full parse and
is rebuilt.  `put` never touches the index, and a failure to write it is
ignored.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone

from .errors import FieldError, QctError
from .galois import _is_int, prime_power

DEFAULT_PATH = "qct_catalog.jsonl"

KINDS = ("classical", "quantum", "report")
SEARCH_KEYS = ("n", "k", "q", "dz", "dx")   # integer or null in a payload


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
        self._rows = {}    # id -> its row (see _row), in file order
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
                    prefix = fh.read(covered)
                    digest.update(prefix)
                    self._at_line_start = prefix[-1:] in (b"", b"\n")
                if index is None or (len(prefix) != covered
                                     or digest.hexdigest() != sha):
                    covered, lines, old_rows, append = 0, 0, [], False
                    digest = hashlib.sha256()
                    fh.seek(0)
                new_rows, end, newlines = self._scan(fh, covered, lines + 1,
                                                     digest)
        except FileNotFoundError:
            return
        except OSError as exc:
            raise QctError(f"cannot read catalog {self.path}: {exc}")
        self._rows = {row[0]: row for row in old_rows + new_rows}
        if end > covered:
            batch = {"from": covered if append else 0, "to": end,
                     "lines": lines + newlines, "sha256": digest.hexdigest(),
                     "rows": new_rows if append else old_rows + new_rows}
            _write_index(self.index_path, batch, append)

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
                    entry = _parse(line)
                except (ValueError, KeyError, TypeError) as exc:
                    if line.endswith(b"\n"):
                        raise QctError(f"cannot read catalog {self.path}: "
                                       f"line {number}: {exc}")
                    self.skipped_tail = number
                    self._at_line_start = False
                    break
                rows.append(_row(entry, offset, end))
            digest.update(line)
            self._at_line_start = line.endswith(b"\n")
            newlines += self._at_line_start
            offset = end
        return rows, offset, newlines

    def _read(self, eids) -> list:
        """The entries of `eids`: each stored line is parsed from its byte
        range, and must hold the entry it is indexed under."""
        found = {e: self._added[e] for e in eids if e in self._added}
        todo = [e for e in eids if e not in found]
        if todo:
            try:
                with open(self.path, "rb") as fh:
                    for eid in todo:
                        start, end = self._rows[eid][2:4]
                        fh.seek(start)
                        try:
                            entry = _parse(fh.read(end - start))
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
        bad = _bad_search_key(payload)
        if bad:
            raise QctError(f"catalog payload key {bad!r} must be an integer "
                           f"or null, not {payload[bad]!r}")
        inputs = list(inputs)
        for ref in inputs:
            if ref not in self._rows:
                raise QctError(f"input id {ref} not found in catalog")
        eid = payload_id(payload)
        if eid in self._rows:
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
        self._rows[eid] = _row(entry, None, None)
        return entry

    def get(self, eid: str) -> CatalogEntry:
        if eid not in self._rows:
            raise QctError(f"id {eid} not found in catalog {self.path}")
        return self._read([eid])[0]

    def list(self, kind: str | None = None):
        eids = [eid for eid, row in self._rows.items()
                if kind is None or row[1] == kind]
        return sorted(self._read(eids), key=lambda e: e.created)

    def search(self, n=None, k=None, q=None, dz_min=None, dx_min=None):
        """Match quantum/classical payloads on parameters.  A classical
        payload matches q on its field record's (p, e), with no p ** e.
        Only the index rows are filtered; only the hits are parsed."""
        try:
            pe = None if q is None else list(prime_power(q))
        except FieldError:
            pe = None
        hits = []
        for eid, _, _, _, rn, rk, rq, rdz, rdx, rpe in self._rows.values():
            if n is not None and rn != n:
                continue
            if k is not None and rk != k:
                continue
            if q is not None and (rq[0] != q if rq is not None
                                  else pe is None or rpe != pe):
                continue
            if not (_at_least(rdz, dz_min) and _at_least(rdx, dx_min)):
                continue
            hits.append(eid)
        return sorted(self._read(hits), key=lambda e: e.created)


def _parse(line: bytes) -> CatalogEntry:
    rec = json.loads(line.decode())
    entry = CatalogEntry(rec["id"], rec["kind"], rec["payload"],
                         rec["created"], rec.get("inputs", []))
    if not isinstance(entry.payload, dict):
        raise TypeError("payload is not a JSON object")
    bad = _bad_search_key(entry.payload)
    if bad:
        raise TypeError(f"payload key {bad!r} is not an integer or null")
    if not isinstance(entry.created, str):
        raise TypeError("created is not a string")
    return entry


def _bad_search_key(payload: dict):
    """The first of the keys `search` compares that holds neither an
    integer nor null, or None."""
    for key in SEARCH_KEYS:
        if payload.get(key) is not None and not _is_int(payload[key]):
            return key
    return None


def _at_least(value, floor) -> bool:
    """`search`'s minimum test: a missing value counts as 0, and a value
    that is not an integer (from an index older than the key checks) never
    passes."""
    value = 0 if value is None else value
    return floor is None or (_is_int(value) and value >= floor)


def _row(entry: CatalogEntry, start, end) -> list:
    """An entry's index row: id, kind, the byte range of its line, and what
    `search` reads of the payload.  That is n, k, [q] (None when the payload
    has no q), dz, dx, and [p, e] of a field record (None without one)."""
    p = entry.payload
    field = p.get("field")
    return [entry.id, entry.kind, start, end, p.get("n"), p.get("k"),
            [p["q"]] if "q" in p else None, p.get("dz"), p.get("dx"),
            [field.get("p"), field.get("e")] if isinstance(field, dict)
            else None]


def _read_index(path: str):
    """The part of the index at `path` that chains from byte 0, as (covered,
    newlines, rows, sha256, appendable), or None when there is none.  Each
    line is a batch's JSON text after its own SHA-256, so a line that fails
    its checksum voids the whole index.  A last line with no newline is a
    write cut short and is dropped.  Batches are taken while each starts
    where the last one taken ends.  The index may be appended to only if it
    ends with the last batch taken."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        cut = lines.pop()
        for line in lines:
            if hashlib.sha256(line[65:]).hexdigest().encode() != line[:64]:
                raise ValueError("index line fails its checksum")
        batches = json.loads(b"[" + b",".join(line[65:] for line in lines)
                             + b"]")
        covered, newlines, rows, sha, last = 0, 0, [], None, None
        for i, batch in enumerate(batches):
            to = batch["to"]
            if batch["from"] != covered or not covered <= to:
                continue
            rows += batch["rows"]
            covered, newlines, sha, last = to, batch["lines"], \
                batch["sha256"], i
    except (OSError, ValueError, TypeError, KeyError):
        return None
    if last is None:
        return None
    return covered, newlines, rows, sha, not cut and last == len(batches) - 1


def _write_index(path: str, batch: dict, append: bool):
    """Append one batch, or rewrite the index as that one batch."""
    text = json.dumps(batch, separators=(",", ":")).encode()
    data = hashlib.sha256(text).hexdigest().encode() + b" " + text + b"\n"
    try:
        with open(path, "ab" if append else "wb") as fh:
            fh.write(data)
    except OSError:
        pass   # the index is only a cache
