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
from typing import List, Optional, Sequence

import numpy as np

from repro.grid.nodes import Node, StorageElement
from repro.grid.transfer import GridFTPService, ScatterReport
from repro.obs import NULL_OBS, Observability
from repro.services.locator import DatasetLocation
from repro.sim import Environment, Process


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
    """Splits a dataset on its storage element and scatters the parts.

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

    #: Per-part range-query planning cost (seconds) when none is given.
    DEFAULT_PER_QUERY_OVERHEAD = 0.5

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

    def split_seconds_for(self, location: DatasetLocation, n_parts: int) -> float:
        """Cost of the serial split pass for *n_parts* (the §4 model).

        The pass "must iterate through the entire dataset in all cases",
        so the cost is the same whether every part is needed or only a
        few are missing — the replica-aware staging path charges exactly
        this when any part of a geometry has to be (re)produced.
        """
        return location.size_mb * self.split_rate + n_parts * self.per_file_overhead

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

    def query_and_scatter(
        self,
        location: DatasetLocation,
        worker_nodes: Sequence[Node],
        strategy: str = "by-events",
        event_weights: Optional[np.ndarray] = None,
        streams: Optional[int] = None,
        per_query_overhead: float = DEFAULT_PER_QUERY_OVERHEAD,
    ) -> Process:
        """Stage a *database*-located dataset: range queries, no split pass.

        §3.4 allows the location to be "a set of contiguous records in a
        database server"; each part is then a server-side range query, so
        the serial whole-dataset split pass disappears — only a small
        per-query planning overhead plus the scatter remain.
        """
        parts = self.plan_parts(
            location,
            [node.name for node in worker_nodes],
            strategy,
            event_weights,
        )

        tracer = self.obs.tracer

        def run():
            planning_started = self.env.now
            plan_span = tracer.child(
                "stage.query_plan", phase="split", parts=len(parts)
            )
            yield self.env.timeout(per_query_overhead * len(parts))
            plan_span.finish()
            planning_seconds = self.env.now - planning_started
            move_started = self.env.now
            move_span = tracer.child("stage.move_parts", phase="move_parts")
            with tracer.activate(move_span):
                scatter = self.ftp.scatter(
                    self.storage,
                    list(worker_nodes),
                    [
                        (f"{location.dataset_id}.range{p.part_index}", p.size_mb)
                        for p in parts
                    ],
                    streams=streams,
                )
            yield scatter
            move_span.finish()
            return StageReport(
                split_seconds=planning_seconds,
                move_parts_seconds=self.env.now - move_started,
                parts=parts,
            )

        return self.env.process(
            tracer.trace_gen("stage.query_and_scatter", run())
        )

    def split_and_scatter(
        self,
        location: DatasetLocation,
        worker_nodes: Sequence[Node],
        strategy: str = "by-events",
        event_weights: Optional[np.ndarray] = None,
        streams: Optional[int] = None,
    ) -> Process:
        """Run the full §3.4 staging pipeline; value is a :class:`StageReport`.

        The split pass (serial, whole dataset) runs first; the scatter then
        pipelines SE disk reads with parallel per-worker transfers.
        """
        parts = self.plan_parts(
            location,
            [node.name for node in worker_nodes],
            strategy,
            event_weights,
        )

        tracer = self.obs.tracer

        def run():
            split_started = self.env.now
            split_span = tracer.child(
                "stage.split",
                phase="split",
                mb=location.size_mb,
                parts=len(parts),
            )
            yield self.env.timeout(
                self.split_seconds_for(location, len(parts))
            )
            split_span.finish()
            split_seconds = self.env.now - split_started

            move_started = self.env.now
            move_span = tracer.child("stage.move_parts", phase="move_parts")
            with tracer.activate(move_span):
                scatter = self.ftp.scatter(
                    self.storage,
                    list(worker_nodes),
                    [
                        (f"{location.dataset_id}.part{p.part_index}", p.size_mb)
                        for p in parts
                    ],
                    streams=streams,
                )
            report: ScatterReport = yield scatter
            move_span.finish()
            return StageReport(
                split_seconds=split_seconds,
                move_parts_seconds=self.env.now - move_started,
                parts=parts,
            )

        return self.env.process(
            tracer.trace_gen("stage.split_and_scatter", run())
        )
