"""A session's durable state and its one transition function.

A session's durable state is one frozen :class:`SessionState`, and
:func:`apply` is the only place a transition of it is defined: the live
session service commits every transition as a journal record and then
applies that record to its state, and service recovery is :func:`fold`
over the journal (``repro.services.session``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.engine.controls import Command
from repro.services.splitter import PartDescriptor
from repro.services.wsrf import ResourceRef


class SessionError(Exception):
    """Raised on invalid session operations."""


@dataclass(frozen=True)
class StagedDataset:
    """Bookkeeping for the dataset currently attached to a session."""

    dataset_id: str
    size_mb: float
    n_events: int
    content: dict
    #: The split plan; ``parts[i].part_index == i``.
    parts: Tuple[PartDescriptor, ...]
    fetch_seconds: float = 0.0
    split_seconds: float = 0.0
    move_parts_seconds: float = 0.0
    #: Split strategy the parts were cut under (keys replicas by geometry).
    strategy: str = "by-events"
    #: Replica-cache outcome of this stage.
    local_hits: int = 0
    peer_hits: int = 0
    se_hits: int = 0
    cold_parts: int = 0
    fetch_skipped: bool = False
    saved_mb: float = 0.0

    @property
    def stage_seconds(self) -> float:
        """Total staging wall-clock (fetch + split + move parts)."""
        return self.fetch_seconds + self.split_seconds + self.move_parts_seconds

    @classmethod
    def from_record(cls, data: dict) -> "StagedDataset":
        """The dataset a ``stage`` record's *data* describes."""
        return cls(
            dataset_id=data["dataset_id"],
            size_mb=data["size_mb"],
            n_events=data["n_events"],
            content=data["content"],
            parts=tuple(PartDescriptor(**part) for part in data["parts"]),
            strategy=data["strategy"],
            **data["staged"],
        )


@dataclass(frozen=True)
class SessionState:
    """A session's durable state: what its journal records fold to."""

    session_id: str
    owner: str = ""
    token: str = ""
    n_engines: int = 0
    #: Engines believed alive: engine_id -> worker name.
    engines: Dict[str, str] = field(default_factory=dict)
    #: Engines quarantined (their AIDA ban set).
    banned: FrozenSet[str] = frozenset()
    dataset: Optional[StagedDataset] = None
    #: Dispatch map: engine_id -> indexes into ``dataset.parts``.
    assignments: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    #: Part indexes orphaned by a quarantine and not yet re-dispatched.
    orphaned: Tuple[int, ...] = ()
    #: Replica-cache keys pinned for this session.
    pin_keys: Tuple[str, ...] = ()
    running: bool = False
    rewinds: int = 0
    closing: bool = False
    closed: bool = False


def apply(state: Optional[SessionState], record: dict) -> Optional[SessionState]:
    """The state after one journal *record*: the only definition of a
    durable session transition, for the live service and for recovery.

    ``None`` until a ``create`` record arrives.  Returns a new value and
    never mutates *state*; lists read back from JSON become tuples, so a
    record applies the same before and after its trip through the disk.
    """
    kind = record.get("type")
    data = record.get("data", {})
    if kind == "create":
        return SessionState(
            session_id=data["session_id"],
            owner=data.get("owner", ""),
            token=data.get("token", ""),
            n_engines=data.get("n_engines", 0),
            engines=dict(data.get("engines", {})),
        )
    if state is None:
        return None
    if kind == "stage":
        dataset = StagedDataset.from_record(data)
        assignments, orphaned = {}, ()
        for engine_id, indexes in data["assignments"].items():
            if engine_id in state.engines:
                assignments[engine_id] = tuple(indexes)
            else:
                # Planned onto an engine quarantined while the stage ran:
                # its part is an orphan from the start.
                orphaned += tuple(indexes)
        return replace(state, dataset=dataset, assignments=assignments, orphaned=orphaned)
    if kind == "pins":
        return replace(state, pin_keys=tuple(data["keys"]))
    if kind == "control":
        verb = data["verb"]
        if verb in (Command.RUN, Command.STEP):
            return replace(state, running=True)
        if verb in (Command.PAUSE, Command.STOP):
            return replace(state, running=False)
        if verb == Command.REWIND:
            return replace(state, rewinds=state.rewinds + 1)
        return state
    if kind == "quarantine":
        # The dead engine's parts move to the orphan pool.
        engine_id = data["engine_id"]
        assignments = dict(state.assignments)
        lost = assignments.pop(engine_id, ())
        return replace(
            state,
            engines={e: w for e, w in state.engines.items() if e != engine_id},
            banned=state.banned | {engine_id},
            assignments=assignments,
            orphaned=state.orphaned + lost,
        )
    if kind == "dispatch":
        # One orphaned part moves to its new owner.
        engine_id, index = data["engine_id"], data["part_index"]
        orphaned = list(state.orphaned)
        if index in orphaned:
            orphaned.remove(index)
        owned = state.assignments.get(engine_id, ()) + (index,)
        return replace(
            state,
            orphaned=tuple(orphaned),
            assignments={**state.assignments, engine_id: owned},
        )
    if kind == "engine_joined":
        engines = {**state.engines, data["engine_id"]: data["worker"]}
        return replace(state, engines=engines)
    if kind == "closing":
        return replace(state, closing=True)
    if kind == "closed":
        return replace(state, closed=True)
    # "code" records are history only: nothing durable reads them back.
    return state


def fold(records: Iterable[dict]) -> Optional[SessionState]:
    """A session's durable state from its journal (``None`` without a
    ``create``): recovery's whole reading of the journal."""
    return reduce(apply, records, None)


@dataclass
class SessionInfo:
    """What the client receives from ``create_session``."""

    session_id: str
    resource: ResourceRef
    token: str
    n_engines: int
    engine_ids: List[str]

