"""Node types of the simulated grid site.

The paper's architecture (Fig. 2) involves four kinds of machines:

* the user's desktop (client) — outside the site, across the WAN;
* a **manager node** hosting the IPA web services;
* a **storage element** (SE) holding the large dataset files, with GridFTP;
* **worker nodes** of the compute element (CE), where analysis engines run.

Each node has a disk with a finite read/write rate and a host name on the
:class:`~repro.grid.network.Network`.  Nodes model no CPU: every compute
time is a :class:`~repro.core.config.Calibration` rate, charged by the
engine that runs the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.sim import Environment, Process, Resource


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a node's disk: sequential read and write
    bandwidth in MB/s."""

    disk_read_mbps: float = 50.0
    disk_write_mbps: float = 50.0

    def __post_init__(self) -> None:
        if self.disk_read_mbps <= 0 or self.disk_write_mbps <= 0:
            raise ValueError("disk bandwidths must be > 0")


class Node:
    """Base class: a named machine with a local disk."""

    def __init__(self, env: Environment, name: str, spec: NodeSpec) -> None:
        self.env = env
        self.name = name
        self.spec = spec
        #: Files staged on this node's local disk: name -> size MB.
        self.disk_files: Dict[str, float] = {}

    # -- disk -------------------------------------------------------------
    def disk_read(self, size_mb: float) -> Process:
        """Sequential read of *size_mb* from local disk."""
        return self._disk_io(size_mb, self.spec.disk_read_mbps)

    def disk_write(self, size_mb: float) -> Process:
        """Sequential write of *size_mb* to local disk."""
        return self._disk_io(size_mb, self.spec.disk_write_mbps)

    def _disk_io(self, size_mb: float, rate: float) -> Process:
        if size_mb < 0:
            raise ValueError("size_mb must be >= 0")

        def io():
            yield self.env.timeout(size_mb / rate)

        return self.env.process(io())

    def store_file(self, name: str, size_mb: float) -> None:
        """Record a file as present on this node's disk."""
        self.disk_files[name] = size_mb

    def has_file(self, name: str) -> bool:
        """Whether *name* is staged on this node."""
        return name in self.disk_files

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


class WorkerNode(Node):
    """A compute-element worker where one analysis engine runs per session."""

    def __init__(self, env: Environment, name: str, spec: NodeSpec) -> None:
        super().__init__(env, name, spec)
        #: Engine identifier currently running here, if any.
        self.engine_id: Optional[str] = None
        #: Set when the node has failed (crash/hang/unreachable); the
        #: scheduler stops dispatching to it until it is restored.
        self.failed: bool = False
        #: Set while the node's network link is down: heartbeats from the
        #: engine cannot reach the manager even though compute continues.
        self.link_down: bool = False
        #: Multiplier applied to analysis compute on this node (> 1 models
        #: a degraded/preempted "slow node").
        self.slow_factor: float = 1.0

    @property
    def busy(self) -> bool:
        """Whether an analysis engine occupies this worker."""
        return self.engine_id is not None

    @property
    def available(self) -> bool:
        """Whether the worker can accept a new engine."""
        return not self.busy and not self.failed


class ManagerNode(Node):
    """The broker node hosting the IPA web services."""


class StorageElement(Node):
    """Grid storage holding datasets, fronted by the GridFTP service.

    The SE's *disk read* rate is the serial stage of the "move parts" step:
    parts are read off one disk spindle sequentially even though the network
    transfers proceed in parallel (this reproduces the ``46 + 62/N`` shape of
    Table 2 — see DESIGN.md).
    """

    def __init__(self, env: Environment, name: str, spec: NodeSpec) -> None:
        super().__init__(env, name, spec)
        # One spindle: concurrent reads serialize.
        self.disk = Resource(env, capacity=1)

    def sequential_read(self, size_mb: float) -> Process:
        """Read *size_mb* with exclusive access to the single spindle."""

        def io():
            with self.disk.request() as claim:
                yield claim
                yield self.env.timeout(size_mb / self.spec.disk_read_mbps)

        return self.env.process(io())


class ComputeElement:
    """A named pool of worker nodes behind one gatekeeper/scheduler.

    Parameters
    ----------
    name:
        CE identifier (e.g. ``"slac-osg"``).
    workers:
        The worker nodes managed by this element.
    """

    def __init__(self, name: str, workers: List[WorkerNode]) -> None:
        if not workers:
            raise ValueError("a compute element needs at least one worker")
        names = [w.name for w in workers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate worker names")
        self.name = name
        self.workers = list(workers)

    def __len__(self) -> int:
        return len(self.workers)

    def idle_workers(self) -> List[WorkerNode]:
        """Workers with no engine assigned."""
        return [w for w in self.workers if not w.busy]

    def worker(self, name: str) -> WorkerNode:
        """Look up a worker by name."""
        for candidate in self.workers:
            if candidate.name == name:
                return candidate
        raise KeyError(name)
