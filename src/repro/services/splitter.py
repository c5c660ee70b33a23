"""Splitter Service: split the dataset and disperse parts to the workers.

"The splitter service will import the dataset from the actual location and
split it into a pre-configured number of approximately equal parts ...
Once the dataset is split through the splitter service, the individual
parts of dataset will be transferred using Grid FTP protocol to the
analysis worker nodes" (§3.4).

The split itself "must iterate through the entire dataset in all cases and
only has a very small input/output overhead for the number of split files"
(§4) — modelled as a serial pass at ``split_rate`` seconds per MB on the
storage element, plus a small per-file overhead, reproducing Table 2's
nearly-flat split column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Generator, List, Optional, Sequence

import numpy as np

from repro.grid.nodes import Node, StorageElement
from repro.grid.transfer import GridFTPService
from repro.obs import NULL_OBS, Observability
from repro.services.locator import DatasetLocation
from repro.sim import Environment, Process

if TYPE_CHECKING:
    from repro.replica.manager import PartSource, StagePlan


class SplitterError(Exception):
    """Raised on invalid split requests."""


@dataclass(frozen=True)
class PartDescriptor:
    """One split part: which events, how big, and where it was delivered."""

    part_index: int
    start_event: int
    stop_event: int
    size_mb: float
    worker: str

    @property
    def n_events(self) -> int:
        """Events in this part."""
        return self.stop_event - self.start_event


@dataclass
class StageReport:
    """Timing breakdown of one staging operation (feeds Tables 1 and 2)."""

    split_seconds: float
    move_parts_seconds: float
    parts: List[PartDescriptor]


class SplitterService:
    """Produces a stage's missing parts and moves the parts workers lack.

    Every stage, cold or warm, runs the one pipeline
    :meth:`split_and_scatter`: a fully cold stage is the replica plan
    with every part missing.

    Parameters
    ----------
    env:
        Simulation environment.
    storage:
        The storage element holding (or receiving) the dataset.
    ftp:
        Transfer service used for the scatter.
    split_rate:
        Seconds per MB for the serial split pass (paper fit: 0.25 s/MB).
    per_file_overhead:
        Extra seconds per produced part file ("very small input/output
        overhead for the number of split files", §4).
    """

    #: Per-part range-query planning cost (seconds) of a database location.
    PER_QUERY_OVERHEAD = 0.5

    def __init__(
        self,
        env: Environment,
        storage: StorageElement,
        ftp: GridFTPService,
        split_rate: float = 0.25,
        per_file_overhead: float = 0.2,
        obs: Optional[Observability] = None,
    ) -> None:
        if split_rate < 0 or per_file_overhead < 0:
            raise ValueError("rates/overheads must be >= 0")
        self.env = env
        self.obs = obs or NULL_OBS
        self.storage = storage
        self.ftp = ftp
        self.split_rate = split_rate
        self.per_file_overhead = per_file_overhead

    def plan_parts(
        self,
        location: DatasetLocation,
        workers: Sequence[str],
        strategy: str = "by-events",
        event_weights: Optional[np.ndarray] = None,
    ) -> List[PartDescriptor]:
        """Assign contiguous event ranges (and sizes) to workers.

        ``by-events`` gives equal event counts; ``by-bytes`` balances a
        per-event weight profile (uniform weights when not provided, in
        which case the two strategies coincide).
        """
        n_parts = len(workers)
        if n_parts < 1:
            raise SplitterError("need at least one worker")
        n_events = location.n_events
        if strategy == "by-events":
            bounds = np.linspace(0, n_events, n_parts + 1).astype(int)
            if event_weights is not None and n_events:
                # Equal event counts, but actual byte sizes follow the
                # per-event weight profile (this is exactly the skew the
                # by-bytes strategy exists to avoid).
                weights = np.asarray(event_weights, dtype=float)
                if len(weights) != n_events:
                    raise SplitterError("event_weights length mismatch")
                cumulative = np.concatenate([[0.0], np.cumsum(weights)])
                total = cumulative[-1]
                sizes = np.array(
                    [
                        location.size_mb
                        * (cumulative[bounds[i + 1]] - cumulative[bounds[i]])
                        / total
                        if total
                        else 0.0
                        for i in range(n_parts)
                    ]
                )
            else:
                sizes = (
                    np.diff(bounds) / n_events * location.size_mb
                    if n_events
                    else np.zeros(n_parts)
                )
        elif strategy == "by-bytes":
            weights = (
                np.ones(n_events)
                if event_weights is None
                else np.asarray(event_weights, dtype=float)
            )
            if len(weights) != n_events:
                raise SplitterError("event_weights length mismatch")
            cumulative = np.concatenate([[0.0], np.cumsum(weights)])
            targets = np.linspace(0, cumulative[-1], n_parts + 1)
            bounds = np.searchsorted(cumulative, targets, side="left")
            bounds[0], bounds[-1] = 0, n_events
            bounds = np.maximum.accumulate(bounds)
            total = cumulative[-1]
            sizes = np.array(
                [
                    location.size_mb
                    * (cumulative[bounds[i + 1]] - cumulative[bounds[i]])
                    / total
                    if total
                    else 0.0
                    for i in range(n_parts)
                ]
            )
        else:
            raise SplitterError(f"unknown split strategy {strategy!r}")
        return [
            PartDescriptor(
                part_index=index,
                start_event=int(bounds[index]),
                stop_event=int(bounds[index + 1]),
                size_mb=float(sizes[index]),
                worker=workers[index],
            )
            for index in range(n_parts)
        ]

    @staticmethod
    def part_file(location: DatasetLocation, part: PartDescriptor) -> str:
        """The on-disk name of one part (a range query's for a database)."""
        stem = "range" if location.kind == "database" else "part"
        return f"{location.dataset_id}.{stem}{part.part_index}"

    def split_and_scatter(
        self,
        location: DatasetLocation,
        worker_nodes: Sequence[Node],
        strategy: str = "by-events",
        event_weights: Optional[np.ndarray] = None,
        streams: Optional[int] = None,
        plan: Optional["StagePlan"] = None,
        fetch_peer: Optional[Callable[["PartSource"], Generator]] = None,
        started: Optional[float] = None,
        produced: Optional[Callable[[], None]] = None,
    ) -> Process:
        """Produce what a stage misses and move what it lacks; value is a
        :class:`StageReport`.

        *worker_nodes* are the workers in part order.  Without a *plan*
        every part is missing (the §3.4 pipeline); with one
        (``ReplicaManager.plan_sources``) its parts are the geometry.
        Production: a file location runs the serial split pass over the
        whole dataset if any part is missing; a database location plans
        one server-side range query per missing part; then *produced*
        (if given) is called.  Movement: the SE and missing parts
        scatter, pipelining SE disk reads with parallel per-worker
        transfers, while each peer part runs ``fetch_peer(source)``
        alongside.  ``split_seconds`` runs from *started* (default: the
        pipeline's start) to the end of production.
        """
        if plan is None:
            parts = self.plan_parts(
                location,
                [node.name for node in worker_nodes],
                strategy,
                event_weights,
            )
            missing, scatter, peers = parts, parts, []
        else:
            parts = [source.part for source in plan.sources]
            missing = [source.part for source in plan.missing]
            scatter = [source.part for source in plan.se] + missing
            peers = plan.peer
        nodes = list(worker_nodes)
        tracer = self.obs.tracer

        def run():
            split_started = self.env.now if started is None else started
            if missing:
                if location.kind == "database":
                    # Server-side range queries: no split pass at all.
                    name = "stage.query_plan"
                    seconds = self.PER_QUERY_OVERHEAD * len(missing)
                else:
                    # The pass "must iterate through the entire dataset in
                    # all cases" (§4): one cost however few parts are missing.
                    name = "stage.split"
                    seconds = (
                        location.size_mb * self.split_rate
                        + len(parts) * self.per_file_overhead
                    )
                span = tracer.child(name, phase="split", parts=len(missing))
                yield self.env.timeout(seconds)
                span.finish()
            split_seconds = self.env.now - split_started
            if produced is not None:
                produced()

            move_started = self.env.now
            move_span = tracer.child("stage.move_parts", phase="move_parts")
            waits = []
            with tracer.activate(move_span):
                if scatter:
                    waits.append(
                        self.ftp.scatter(
                            self.storage,
                            [nodes[part.part_index] for part in scatter],
                            [(self.part_file(location, p), p.size_mb) for p in scatter],
                            streams=streams,
                        )
                    )
                for source in peers:
                    waits.append(
                        self.env.process(
                            tracer.trace_gen(
                                "stage.peer_fetch",
                                fetch_peer(source),
                                file=self.part_file(location, source.part),
                                src=source.source,
                                dst=source.worker,
                            )
                        )
                    )
            yield waits[0] if len(waits) == 1 else self.env.all_of(waits)
            move_span.finish()
            return StageReport(
                split_seconds=split_seconds,
                move_parts_seconds=self.env.now - move_started,
                parts=parts,
            )

        return self.env.process(
            tracer.trace_gen(
                "stage.split_and_scatter",
                run(),
                missing=len(missing),
                se=len(scatter) - len(missing),
                peer=len(peers),
            )
        )
