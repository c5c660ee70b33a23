"""The analysis engine: chunked event processing with snapshots.

One engine runs per worker node per session.  It holds a dataset part, the
current analysis instance and an AIDA tree; the surrounding harness (the
simulated grid job body, or a real-CPU runner) calls :meth:`process_chunk`
repeatedly, honouring the :class:`~repro.engine.controls.Controller` state
and publishing :class:`Snapshot`\\ s of the tree at a configurable cadence —
that cadence is what delivers the paper's "partial results on time scales
of less than a minute" (§1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.aida.tree import ObjectTree
from repro.dataset.events import Events
from repro.engine.base import Analysis, AnalysisError
from repro.engine.controls import Controller, ControlState


@dataclass(frozen=True)
class Snapshot:
    """An intermediate result from one engine.

    Attributes
    ----------
    engine_id:
        The producing engine.
    sequence:
        Monotonic per-engine snapshot number.
    events_processed:
        Cursor after the producing chunk.
    total_events:
        Size of the engine's dataset part.
    analysis_version:
        Version of the code bundle that produced this snapshot (stale
        versions are dropped by the merger after a reload).
    run_id:
        Increments on every rewind, so results from an abandoned run never
        pollute the current merge.
    tree:
        Frozen ``ObjectTree`` of frozen copies of the engine's objects;
        a delta holds only those changed since ``base_sequence``.
    final:
        True when the part is exhausted.
    base_sequence:
        ``0`` for a full snapshot (keyframe); for a delta, the sequence
        number of the previously published snapshot the delta applies on
        top of.  A merger whose cached sequence differs detects the gap
        and requests a full resend.
    combiner:
        Id of the leaf combiner this snapshot is routed through when the
        session has a tiered merge (``None`` = published straight to the
        flat root merge).  Stamped by the publish path, not the engine.
    """

    engine_id: str
    sequence: int
    events_processed: int
    total_events: int
    analysis_version: int
    run_id: int
    tree: ObjectTree
    final: bool = False
    base_sequence: int = 0
    combiner: Optional[str] = None


@dataclass(frozen=True)
class ChunkResult:
    """Outcome of one :meth:`AnalysisEngine.process_chunk` call."""

    events: int
    cursor: int
    done: bool
    state: str
    snapshot: Optional[Snapshot] = None


class AnalysisEngine:
    """Chunked executor of one analysis over one dataset part.

    Parameters
    ----------
    engine_id:
        Unique name, e.g. ``"engine-3@w3"``.
    chunk_events:
        Events processed per :meth:`process_chunk` call (the granularity of
        control responsiveness and simulated-time accounting).
    snapshot_every_chunks:
        Publish a snapshot every N chunks (1 = after every chunk).
    keyframe_every:
        Cadence of full-snapshot keyframes (>= 1; 1 means every snapshot
        is full).  Snapshots between keyframes are deltas: they carry only
        objects whose version fingerprints changed since the last
        published snapshot, and a keyframe lets a merger always
        resynchronize.
    """

    def __init__(
        self,
        engine_id: str,
        chunk_events: int = 500,
        snapshot_every_chunks: int = 1,
        keyframe_every: int = 8,
    ) -> None:
        if chunk_events < 1:
            raise ValueError("chunk_events must be >= 1")
        if snapshot_every_chunks < 1:
            raise ValueError("snapshot_every_chunks must be >= 1")
        if keyframe_every < 1:
            raise ValueError("keyframe_every must be >= 1")
        self.engine_id = engine_id
        self.chunk_events = chunk_events
        self.snapshot_every_chunks = snapshot_every_chunks
        self.keyframe_every = keyframe_every
        self.controller = Controller()
        self.tree = ObjectTree()
        self._data: Optional[Events] = None
        self._analysis: Optional[Analysis] = None
        self._cursor = 0
        self._chunks_since_snapshot = 0
        self._sequence = 0
        self._run_id = 0
        self._started = False
        self._ended = False
        # Delta-snapshot state: version fingerprints as of the last
        # published snapshot, and how many snapshots since a keyframe.
        self._published_versions: Optional[Dict[str, Tuple[int, Optional[int]]]] = None
        self._published_sequence = 0
        self._snapshots_since_keyframe = 0
        # Cumulative offsets from parts absorbed before the current one
        # (failure recovery re-dispatches a dead engine's partitions here).
        self._events_base = 0
        self._total_base = 0

    # -- staging ------------------------------------------------------------
    def load_data(self, batch: Events) -> None:
        """Stage the dataset part; resets the cursor and any prior parts."""
        self._data = batch
        self._cursor = 0
        self._ended = False
        self._events_base = 0
        self._total_base = 0

    def load_additional_data(self, batch: Events) -> None:
        """Absorb a further dataset part (partition takeover on recovery).

        The tree and analysis state are kept — AIDA merge semantics make the
        union exact — and progress accounting becomes cumulative across all
        absorbed parts.  The previous part's processed events are folded
        into the base offsets, so snapshots keep reporting monotonically
        increasing ``events_processed``.
        """
        if self._data is None:
            self.load_data(batch)
            return
        self._events_base += self._cursor
        self._total_base += len(self._data)
        self._data = batch
        self._cursor = 0
        self._ended = False

    def release_data(self) -> None:
        """Drop the staged part: the engine's job is over.

        The part's counts are folded into the base offsets first, so
        :attr:`cursor` and :attr:`total_events` keep answering with the
        values they had; only the event bytes go.
        """
        if self._data is None:
            return
        self._events_base += self._cursor
        self._total_base += len(self._data)
        self._data = None
        self._cursor = 0

    def load_analysis(self, analysis: Analysis) -> None:
        """(Re)load analysis code.

        On hot reload mid-run the current results are kept (AIDA semantics:
        objects persist; the user typically rewinds to reprocess with the
        new code, §3.6).
        """
        self._analysis = analysis
        self._started = False

    @property
    def analysis(self) -> Optional[Analysis]:
        """The currently loaded analysis instance."""
        return self._analysis

    @property
    def cursor(self) -> int:
        """Events processed so far in the current run (all parts)."""
        return self._events_base + self._cursor

    @property
    def total_events(self) -> int:
        """Events across every absorbed part (0 before staging)."""
        current = len(self._data) if self._data is not None else 0
        return self._total_base + current

    @property
    def done(self) -> bool:
        """True once every event of the part has been processed."""
        return self._data is not None and self._cursor >= len(self._data)

    @property
    def run_id(self) -> int:
        """Increments on every rewind."""
        return self._run_id

    # -- execution ----------------------------------------------------------
    def _ensure_ready(self) -> None:
        if self._data is None:
            raise AnalysisError(f"{self.engine_id}: no dataset part staged")
        if self._analysis is None:
            raise AnalysisError(f"{self.engine_id}: no analysis code loaded")

    def rewind(self) -> None:
        """Reset cursor and results; next chunk starts from event 0."""
        self._cursor = 0
        self._run_id += 1
        self._sequence = 0
        self._chunks_since_snapshot = 0
        self.tree = ObjectTree()
        self._published_versions = None
        self._published_sequence = 0
        self._snapshots_since_keyframe = 0
        self._started = False
        self._ended = False
        self._events_base = 0
        self._total_base = 0

    def process_chunk(self) -> ChunkResult:
        """Apply pending controls, then process up to one chunk of events.

        Returns a :class:`ChunkResult`; ``result.snapshot`` is set when the
        snapshot cadence (or the end of the part) was reached.  When paused
        or stopped, no events are processed.
        """
        self._ensure_ready()
        controller = self.controller
        controller.drain()
        if controller.rewind_requested:
            # One reset per REWIND drained: each opens a run id of its own,
            # so the engine stays on the run the session's merge expects.
            for _ in range(controller.rewind_requested):
                self.rewind()
            controller.acknowledge_rewind()

        if controller.state in (
            ControlState.PAUSED,
            ControlState.STOPPED,
            ControlState.IDLE,
        ):
            return ChunkResult(
                events=0,
                cursor=self._cursor,
                done=self.done,
                state=controller.state,
            )

        if not self._started:
            self._analysis.start(self.tree)
            self._started = True
            self._ended = False

        allowance = controller.chunk_allowance(self.chunk_events)
        start = self._cursor
        stop = min(start + allowance, len(self._data))
        events = stop - start
        if events > 0:
            chunk = self._data.slice(start, stop)
            try:
                self._analysis.process_batch(chunk, self.tree)
            except Exception as exc:
                raise AnalysisError(
                    f"{self.engine_id}: analysis failed at events "
                    f"[{start}, {stop}): {exc}"
                ) from exc
            self._cursor = stop
            controller.consume_step_budget(events)

        finished = self.done
        if finished and not self._ended:
            self._analysis.end(self.tree)
            self._ended = True

        self._chunks_since_snapshot += 1
        snapshot: Optional[Snapshot] = None
        if finished or self._chunks_since_snapshot >= self.snapshot_every_chunks:
            snapshot = self.take_snapshot(final=finished)
            self._chunks_since_snapshot = 0
        return ChunkResult(
            events=events,
            cursor=self._cursor,
            done=finished,
            state=controller.state,
            snapshot=snapshot,
        )

    def run_to_completion(
        self, publish: Optional[Callable[[Snapshot], None]] = None
    ) -> int:
        """Drive chunks until done/stopped (real-CPU path); returns events.

        The simulated-grid path instead drives :meth:`process_chunk` from a
        job body so each chunk also advances the virtual clock.
        """
        total = 0
        self.controller.run()
        while True:
            result = self.process_chunk()
            total += result.events
            if result.snapshot is not None and publish is not None:
                publish(result.snapshot)
            if result.done or result.state in (
                ControlState.STOPPED,
                ControlState.PAUSED,
                ControlState.IDLE,
            ):
                return total

    # -- snapshots ----------------------------------------------------------
    def take_snapshot(self, final: bool = False, full: bool = False) -> Snapshot:
        """Publish frozen copies of the current tree as a :class:`Snapshot`.

        Between keyframes only objects whose version fingerprint changed
        since the last published snapshot are copied; a full keyframe is
        forced by *full* (e.g. when the merger reports a sequence gap), on
        the first snapshot of a run, and every :attr:`keyframe_every`
        snapshots.
        """
        self._sequence += 1
        versions = self.tree.versions()
        emit_full = (
            full
            or self._published_versions is None
            or self._snapshots_since_keyframe >= self.keyframe_every - 1
        )
        if emit_full:
            published = self.tree.frozen_copy()
            base_sequence = 0
            self._snapshots_since_keyframe = 0
        else:
            previous = self._published_versions
            # Objects without a data_version cannot prove they are clean.
            dirty = {
                path
                for path, fingerprint in versions.items()
                if fingerprint[1] is None or previous.get(path) != fingerprint
            }
            published = self.tree.frozen_copy(only=dirty)
            base_sequence = self._published_sequence
            self._snapshots_since_keyframe += 1
        self._published_versions = versions
        self._published_sequence = self._sequence
        return Snapshot(
            engine_id=self.engine_id,
            sequence=self._sequence,
            events_processed=self._events_base + self._cursor,
            total_events=self.total_events,
            analysis_version=(
                self._analysis.version if self._analysis is not None else 0
            ),
            run_id=self._run_id,
            tree=published,
            final=final,
            base_sequence=base_sequence,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<AnalysisEngine {self.engine_id!r} "
            f"{self._cursor}/{self.total_events}>"
        )
