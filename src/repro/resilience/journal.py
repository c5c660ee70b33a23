"""Durable session journal: the write-ahead log behind service recovery.

The original deployment kept all session state in the memory of the
manager-node service JVM — a SessionService or AIDA-manager restart lost
every in-flight session.  This module provides the durable half of the
fix:

:class:`DurableStore`
    An in-memory model of the manager node's *local disk*: it survives a
    service-process crash (only the process' volatile dictionaries die)
    while honouring fsync semantics — appends made with ``sync=False``
    sit in a buffered tail that a crash discards, exactly like page-cache
    writes that never reached the platter.

:class:`SessionJournal`
    A per-session append-only log of state transitions (create, stage
    plan, code stage, control verbs, quarantines, re-dispatches, replica
    pins, close).  Every record is a checksummed JSON line; readers stop
    at the first corrupt record, so a torn tail (a crash mid-append)
    costs at most the unflushed suffix, never the whole journal.

:func:`replay_journal`
    Folds a journal's records into a :class:`JournalModel` — the durable
    view of a session the restarted service rebuilds its volatile state
    from.

Journal and checkpoint writes charge **zero simulated time**: durability
is modelled as asynchronous local-disk I/O that never blocks the service
hot path, so enabling it does not perturb any calibrated timing.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set


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

    Files are ordered lists of text lines.  Each file tracks a *synced
    watermark*: lines above it were fsync'd and survive anything; lines
    past it are buffered and are dropped by :meth:`crash` (the modelled
    power-cut / process-kill).  :meth:`tear` additionally truncates the
    last line mid-way — the torn-write case a checksummed reader must
    tolerate.
    """

    def __init__(self) -> None:
        self._files: Dict[str, List[str]] = {}
        self._synced: Dict[str, int] = {}

    def append(self, name: str, line: str, sync: bool = True) -> None:
        """Append one line; with ``sync`` it is durable immediately."""
        lines = self._files.setdefault(name, [])
        lines.append(line)
        if sync:
            self._synced[name] = len(lines)

    def sync(self, name: str) -> None:
        """fsync: make every buffered line of *name* durable."""
        if name in self._files:
            self._synced[name] = len(self._files[name])

    def read(self, name: str) -> List[str]:
        """All lines currently visible (synced or still buffered)."""
        return list(self._files.get(name, []))

    def names(self, prefix: str = "") -> List[str]:
        """Sorted file names, optionally filtered by prefix."""
        return sorted(n for n in self._files if n.startswith(prefix))

    def delete(self, name: str) -> None:
        """Remove a file (idempotent)."""
        self._files.pop(name, None)
        self._synced.pop(name, None)

    def tear(self, name: str) -> None:
        """Truncate the last line mid-way (a torn write caught by a crash)."""
        lines = self._files.get(name)
        if not lines:
            return
        last = lines[-1]
        lines[-1] = last[: max(1, len(last) // 2)]

    def crash(self) -> None:
        """Power-cut semantics: every unsynced buffered tail is lost."""
        for name, lines in self._files.items():
            keep = self._synced.get(name, 0)
            del lines[keep:]


class SessionJournal:
    """Append-only, checksummed write-ahead log for one session.

    With ``fsync=True`` (the default) every record is durable the moment
    :meth:`append` returns; with ``fsync=False`` records are buffered
    until the next :meth:`sync` (the checkpoint loop syncs on every
    checkpoint), trading the buffered tail for lower modelled I/O load.
    """

    PREFIX = "journal/"

    def __init__(
        self, store: DurableStore, session_id: str, fsync: bool = True
    ) -> None:
        self.store = store
        self.session_id = session_id
        self.fsync = fsync
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
        self.store.append(self.name, encode_record(record), sync=self.fsync)
        return record

    def sync(self) -> None:
        """Make every buffered record durable."""
        self.store.sync(self.name)

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


@dataclass
class JournalModel:
    """A session's durable state, folded from its journal records."""

    session_id: str
    owner: str = ""
    token: str = ""
    n_engines: int = 0
    #: Engines believed alive per the journal: engine_id -> worker name.
    engines: Dict[str, str] = field(default_factory=dict)
    #: Engines quarantined before the crash (their AIDA ban set).
    banned: Set[str] = field(default_factory=set)
    dataset_id: Optional[str] = None
    strategy: str = "by-events"
    size_mb: float = 0.0
    n_events: int = 0
    content: dict = field(default_factory=dict)
    #: Part descriptors of the current stage, as plain dicts.
    parts: List[dict] = field(default_factory=list)
    #: Current dispatch map: engine_id -> [part_index, ...].
    assignments: Dict[str, List[int]] = field(default_factory=dict)
    #: Part indexes orphaned by a quarantine and not yet re-dispatched.
    orphaned: List[int] = field(default_factory=list)
    #: Replica-cache keys pinned for this session.
    pin_keys: List[str] = field(default_factory=list)
    #: Timing/hit bookkeeping of the last stage (StagedDataset extras).
    staged: dict = field(default_factory=dict)
    class_name: Optional[str] = None
    running: bool = False
    rewinds: int = 0
    closing: bool = False
    closed: bool = False


def replay_journal(records: List[dict]) -> Optional[JournalModel]:
    """Fold journal *records* into the session's durable state.

    Returns ``None`` when no ``create`` record survived (nothing to
    recover).  The fold mirrors the live bookkeeping: quarantines move an
    engine's parts to the orphan pool, dispatches move one part back to
    its new owner, spare joins add engines.
    """
    model: Optional[JournalModel] = None
    for record in records:
        rtype = record.get("type")
        data = record.get("data", {})
        if rtype == "create":
            model = JournalModel(
                session_id=data["session_id"],
                owner=data.get("owner", ""),
                token=data.get("token", ""),
                n_engines=data.get("n_engines", 0),
                engines=dict(data.get("engines", {})),
            )
            continue
        if model is None:
            continue
        if rtype == "stage":
            model.dataset_id = data["dataset_id"]
            model.strategy = data.get("strategy", "by-events")
            model.size_mb = data.get("size_mb", 0.0)
            model.n_events = data.get("n_events", 0)
            model.content = dict(data.get("content", {}))
            model.parts = list(data.get("parts", []))
            model.assignments = {
                engine_id: list(indexes)
                for engine_id, indexes in data.get("assignments", {}).items()
            }
            model.orphaned = []
            model.staged = dict(data.get("staged", {}))
        elif rtype == "pins":
            model.pin_keys = list(data.get("keys", []))
        elif rtype == "code":
            model.class_name = data.get("class_name")
        elif rtype == "control":
            verb = data.get("verb")
            if verb in ("run", "step"):
                model.running = True
            elif verb in ("pause", "stop"):
                model.running = False
            elif verb == "rewind":
                model.rewinds += 1
        elif rtype == "quarantine":
            engine_id = data["engine_id"]
            model.engines.pop(engine_id, None)
            model.banned.add(engine_id)
            model.orphaned.extend(model.assignments.pop(engine_id, []))
        elif rtype == "dispatch":
            engine_id = data["engine_id"]
            part_index = data["part_index"]
            if part_index in model.orphaned:
                model.orphaned.remove(part_index)
            model.assignments.setdefault(engine_id, []).append(part_index)
        elif rtype == "engine_joined":
            model.engines[data["engine_id"]] = data["worker"]
        elif rtype == "closing":
            model.closing = True
        elif rtype == "closed":
            model.closed = True
    return model
