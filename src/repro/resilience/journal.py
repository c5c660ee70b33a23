"""Durable session journal: the write-ahead log behind service recovery.

The original deployment kept all session state in the memory of the
manager-node service JVM — a SessionService or AIDA-manager restart lost
every in-flight session.  This module provides the durable half of the
fix:

:class:`DurableStore`
    An in-memory model of the manager node's *local disk*: it survives a
    service-process crash (only the process' volatile dictionaries die).
    Every append is durable when it returns (fsync'd); only a write torn
    mid-line by the crash itself is lost.

:class:`SessionJournal`
    A per-session append-only log of state transitions (create, stage
    plan, code stage, control verbs, quarantines, re-dispatches, replica
    pins, close).  Every record is a checksummed JSON line; readers stop
    at the first corrupt record, so a torn tail (a crash mid-append)
    costs at most the torn suffix, never the whole journal.

What a record *means* is not defined here: ``apply`` and ``fold`` in
:mod:`repro.services.session_state` turn records into a ``SessionState``, for
the live service and for the restarted one alike.

Journal and checkpoint writes charge **zero simulated time**: durability
is modelled as local-disk I/O that never blocks the service hot path, so
it does not perturb any calibrated timing.
"""

from __future__ import annotations

import json
import zlib
from typing import Dict, List, Optional


def json_default(value):
    """JSON encoder fallback: unwrap numpy scalars living in tree dicts."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"{type(value).__name__} is not JSON-serializable")


def encode_record(record: dict) -> str:
    """Serialize one record as a checksummed single-line string."""
    body = json.dumps(record, sort_keys=True, default=json_default)
    checksum = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{checksum:08x} {body}"


def decode_record(line: str) -> Optional[dict]:
    """Parse a checksummed line; ``None`` for corrupt/torn records."""
    checksum, sep, body = line.partition(" ")
    if not sep or not body:
        return None
    try:
        expected = int(checksum, 16)
    except ValueError:
        return None
    if zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF != expected:
        return None
    try:
        record = json.loads(body)
    except json.JSONDecodeError:
        return None
    return record if isinstance(record, dict) else None


class DurableStore:
    """The manager node's local disk, as seen by the service processes.

    Files are ordered lists of text lines; every appended line is durable
    at once and survives a service crash.  :meth:`tear` truncates the
    last line mid-way — the torn-write case a checksummed reader must
    tolerate.
    """

    def __init__(self) -> None:
        self._files: Dict[str, List[str]] = {}

    def append(self, name: str, line: str) -> None:
        """Append one line; it is durable when this returns."""
        self._files.setdefault(name, []).append(line)

    def read(self, name: str) -> List[str]:
        """All lines of *name*."""
        return list(self._files.get(name, []))

    def names(self, prefix: str = "") -> List[str]:
        """Sorted file names, optionally filtered by prefix."""
        return sorted(n for n in self._files if n.startswith(prefix))

    def delete(self, name: str) -> None:
        """Remove a file (idempotent)."""
        self._files.pop(name, None)

    def tear(self, name: str) -> None:
        """Truncate the last line mid-way (a torn write caught by a crash)."""
        lines = self._files.get(name)
        if not lines:
            return
        last = lines[-1]
        lines[-1] = last[: max(1, len(last) // 2)]


class SessionJournal:
    """Append-only, checksummed write-ahead log for one session.

    Every record is durable the moment :meth:`append` returns.
    """

    PREFIX = "journal/"

    def __init__(self, store: DurableStore, session_id: str) -> None:
        self.store = store
        self.session_id = session_id
        self.name = self.name_for(session_id)
        #: Corrupt/torn lines skipped by the last :meth:`records` call.
        self.torn_records = 0
        self._seq = 0
        for record in self.records():
            self._seq = max(self._seq, record.get("seq", 0))

    @classmethod
    def name_for(cls, session_id: str) -> str:
        return cls.PREFIX + session_id

    @classmethod
    def session_ids(cls, store: DurableStore) -> List[str]:
        """Sessions with a journal in *store*."""
        return [n[len(cls.PREFIX):] for n in store.names(cls.PREFIX)]

    def append(self, record_type: str, /, **data) -> dict:
        """Write one record; returns it (with its sequence number)."""
        self._seq += 1
        record = {"seq": self._seq, "type": record_type, "data": data}
        self.store.append(self.name, encode_record(record))
        return record

    def records(self) -> List[dict]:
        """Valid records in order, stopping at the first corrupt line.

        A torn tail (crash mid-append) therefore costs only the records
        at and after the tear, never earlier history.
        """
        out: List[dict] = []
        lines = self.store.read(self.name)
        for index, line in enumerate(lines):
            record = decode_record(line)
            if record is None:
                self.torn_records = len(lines) - index
                return out
            out.append(record)
        self.torn_records = 0
        return out
