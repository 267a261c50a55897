"""Persistent JSON-lines catalog of constructed codes and audit reports.

Entries are content-addressed: the id is the SHA-256 hash of the canonical
payload serialization, so putting the same record twice is a no-op.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone

from .errors import FieldError, QctError
from .galois import prime_power

DEFAULT_PATH = "qct_catalog.jsonl"

KINDS = ("classical", "quantum", "report")


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
        self._entries = {}
        self.skipped_tail = None   # line number of a cut-short last line
        self._at_line_start = True
        self._load()

    def _load(self):
        """Read every entry.  An unparsable last line with no newline is a
        write cut short: it is skipped and named in `skipped_tail`, and the
        next put starts on a fresh line.  Any other bad line is an error."""
        line = b""
        try:
            with open(self.path, "rb") as fh:
                for number, line in enumerate(fh, 1):
                    if not line.strip():
                        continue
                    try:
                        rec = json.loads(line.decode())
                        self._entries[rec["id"]] = CatalogEntry(
                            rec["id"], rec["kind"], rec["payload"],
                            rec["created"], rec.get("inputs", []))
                    except (ValueError, KeyError, TypeError) as exc:
                        if line.endswith(b"\n"):
                            raise QctError(f"cannot read catalog {self.path}: "
                                           f"line {number}: {exc}")
                        self.skipped_tail = number
        except FileNotFoundError:
            return
        except OSError as exc:
            raise QctError(f"cannot read catalog {self.path}: {exc}")
        self._at_line_start = not line or line.endswith(b"\n")

    def put(self, kind: str, payload: dict, inputs=()) -> CatalogEntry:
        if kind not in KINDS:
            raise QctError(f"unknown catalog kind {kind!r}")
        inputs = list(inputs)
        for ref in inputs:
            if ref not in self._entries:
                raise QctError(f"input id {ref} not found in catalog")
        eid = payload_id(payload)
        if eid in self._entries:
            return self._entries[eid]
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
        self._entries[eid] = entry
        return entry

    def get(self, eid: str) -> CatalogEntry:
        if eid not in self._entries:
            raise QctError(f"id {eid} not found in catalog {self.path}")
        return self._entries[eid]

    def list(self, kind: str | None = None):
        out = [e for e in self._entries.values()
               if kind is None or e.kind == kind]
        return sorted(out, key=lambda e: e.created)

    def search(self, n=None, k=None, q=None, dz_min=None, dx_min=None):
        """Match quantum/classical payloads on parameters.  A classical
        payload matches q on its field record's (p, e), with no p ** e."""
        try:
            pe = None if q is None else prime_power(q)
        except FieldError:
            pe = None
        hits = []
        for entry in self.list():
            p = entry.payload
            if n is not None and p.get("n") != n:
                continue
            if k is not None and p.get("k") != k:
                continue
            if q is not None and (p["q"] != q if "q" in p
                                  else pe is None or _field_pe(p) != pe):
                continue
            if dz_min is not None and (p.get("dz") or 0) < dz_min:
                continue
            if dx_min is not None and (p.get("dx") or 0) < dx_min:
                continue
            hits.append(entry)
        return hits


def _field_pe(payload: dict):
    field = payload.get("field")
    return (field.get("p"), field.get("e")) if isinstance(field, dict) else None
