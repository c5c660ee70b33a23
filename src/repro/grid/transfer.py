"""GridFTP-like transfer service.

Models the three data movements of the paper's staging pipeline (§3.4):

1. **fetch** — move the whole dataset file from its original location to the
   storage element (or, in the local-analysis baseline, across the WAN to
   the desktop);
2. **scatter** — move the split parts from the SE to the worker nodes; the
   parts are read off the SE's single disk spindle *sequentially* but travel
   over the per-worker LAN links *in parallel* (pipelined), which is exactly
   why Table 2's "move parts" column only falls from 105 s to 50 s between
   1 and 16 nodes instead of scaling 1/N;
3. **stage code** — tiny analysis-code archives, dominated by fixed
   per-transfer control-channel overhead (Table 1: 7 s for 15 kB).

Parallel streams: a real GridFTP opens *n* TCP streams to defeat single
stream window limits.  Here each stream contributes ``stream_rate`` MB/s of
per-flow ceiling (never exceeding link capacity, which the max-min model
enforces).

Fault tolerance: transient failures can be injected per service
(:meth:`GridFTPService.inject_failures`); ``transfer_file`` retries under
a :class:`~repro.resilience.retry.RetryPolicy` (exponential backoff with
optional deterministic jitter), raising :class:`TransferError` once the
policy is exhausted — mirroring real GridFTP clients' restart behaviour.
A dropped network link (:class:`~repro.sim.LinkDown`) is retried the same
way, so a transfer survives a brief outage if the link comes back.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import List, Optional, Sequence, Tuple

from repro.grid.network import Network, TransferStats
from repro.grid.nodes import Node, StorageElement
from repro.obs import NULL_OBS, Observability
from repro.resilience.retry import RetryPolicy
from repro.sim import Environment, LinkDown, Process


class TransferError(Exception):
    """Raised when a transfer cannot be performed."""


@dataclass
class ScatterReport:
    """Result of scattering dataset parts to workers."""

    started_at: float
    finished_at: float
    per_part: List[TransferStats]

    @property
    def duration(self) -> float:
        """Total simulated seconds from first disk read to last delivery."""
        return self.finished_at - self.started_at

    @property
    def total_mb(self) -> float:
        """Total payload moved."""
        return sum(stat.size_mb for stat in self.per_part)


class GridFTPService:
    """File mover bound to a network and a set of nodes.

    Parameters
    ----------
    env, network:
        Simulation environment and the topology transfers run over.
    setup_overhead:
        Fixed control-channel cost per transfer in seconds (authentication
        handshake + channel establishment).
    stream_rate:
        Per-TCP-stream rate ceiling in MB/s, or ``None`` for no per-flow
        cap.  Multiplied by ``streams`` to form the flow cap.
    streams:
        Default number of parallel streams per transfer.
    retry_policy:
        Backoff schedule for failed attempts.  The default (base delay
        1 s, multiplier 2, no jitter) reproduces the historical fixed
        1 s first-retry delay exactly; pass a jittered policy (with a
        seed) for desynchronised but still deterministic retries.
    """

    def __init__(
        self,
        env: Environment,
        network: Network,
        setup_overhead: float = 0.5,
        stream_rate: Optional[float] = None,
        streams: int = 1,
        retry_policy: Optional[RetryPolicy] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        if setup_overhead < 0:
            raise ValueError("setup_overhead must be >= 0")
        if streams < 1:
            raise ValueError("streams must be >= 1")
        if stream_rate is not None and stream_rate <= 0:
            raise ValueError("stream_rate must be > 0")
        self.env = env
        self.network = network
        self.setup_overhead = setup_overhead
        self.stream_rate = stream_rate
        self.default_streams = streams
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=3, base_delay=1.0, multiplier=2.0, max_delay=30.0
        )
        self.obs = obs or NULL_OBS
        #: Completed transfers, newest last (for tests/diagnostics).
        self.log: List[TransferStats] = []
        #: Remaining injected transient failures (consumed per attempt).
        self._pending_failures = 0
        #: Per-transfer salt so concurrent transfers get independent (but
        #: deterministic) jitter streams.
        self._transfer_seq = count()

    def inject_failures(self, count: int) -> None:
        """Make the next *count* transfer attempts fail mid-flight."""
        if count < 0:
            raise ValueError("count must be >= 0")
        self._pending_failures = count

    def _consume_failure(self) -> bool:
        if self._pending_failures > 0:
            self._pending_failures -= 1
            return True
        return False

    # ------------------------------------------------------------------
    def _flow_cap(self, streams: Optional[int]) -> Optional[float]:
        n = self.default_streams if streams is None else streams
        if n < 1:
            raise ValueError("streams must be >= 1")
        if self.stream_rate is None:
            return None
        return self.stream_rate * n

    def transfer_file(
        self,
        src: Node,
        dst: Node,
        name: str,
        size_mb: float,
        streams: Optional[int] = None,
        read_disk: bool = True,
        write_disk: bool = True,
        retries: Optional[int] = 2,
    ) -> Process:
        """Move one file between nodes; returns a waitable process.

        The process value is a :class:`~repro.grid.network.TransferStats`.
        Disk read at the source and write at the destination are included
        unless disabled (the scatter path manages SE disk reads itself).
        Injected transient failures abort an attempt halfway; restarts
        (full re-send, GridFTP-classic) follow the service's
        :class:`RetryPolicy` before :class:`TransferError` is raised.
        *retries* overrides the policy's attempt budget
        (``attempts = retries + 1``); pass ``None`` to use the policy's
        own ``max_attempts``.
        """
        if size_mb < 0:
            raise ValueError("size_mb must be >= 0")
        if retries is not None and retries < 0:
            raise ValueError("retries must be >= 0")
        cap = self._flow_cap(streams)
        policy = (
            self.retry_policy
            if retries is None
            else self.retry_policy.with_attempts(retries + 1)
        )
        salt = next(self._transfer_seq)

        def attempt():
            if self.setup_overhead:
                yield self.env.timeout(self.setup_overhead)
            if read_disk:
                yield src.disk_read(size_mb)
            if self._consume_failure():
                # Model a mid-flight abort: half the transfer time is lost.
                half = self.network.transfer(
                    src.name, dst.name, size_mb / 2, stream_cap=cap
                )
                yield half
                raise TransferError(
                    f"transfer of {name!r} to {dst.name} aborted mid-flight"
                )
            stats = yield self.network.transfer(
                src.name, dst.name, size_mb, stream_cap=cap
            )
            if write_disk:
                yield dst.disk_write(size_mb)
            dst.store_file(name, size_mb)
            self.log.append(stats)
            return stats

        metrics = self.obs.metrics
        span = self.obs.tracer.start(
            "ftp.transfer", file=name, src=src.name, dst=dst.name, mb=size_mb
        )

        def run():
            start = self.env.now
            last_error: Optional[Exception] = None
            for attempt_index in range(policy.max_attempts):
                try:
                    stats = yield self.env.process(attempt())
                    span.set(attempts=attempt_index + 1)
                    metrics.counter(
                        "ftp_transfers_total", "Completed GridFTP transfers"
                    ).inc()
                    metrics.counter(
                        "ftp_bytes_mb_total", "Payload moved over GridFTP (MB)"
                    ).inc(size_mb)
                    metrics.histogram(
                        "ftp_transfer_seconds",
                        "GridFTP transfer duration incl. retries (simulated)",
                    ).observe(self.env.now - start)
                    return stats
                except (TransferError, LinkDown) as exc:
                    last_error = exc
                    metrics.counter(
                        "ftp_retries_total",
                        "GridFTP transfer attempts that failed mid-flight",
                    ).inc()
                    if not policy.should_retry(
                        attempt_index, self.env.now - start
                    ):
                        break
                    delay = policy.delay(attempt_index, salt)
                    if delay:
                        yield self.env.timeout(delay)
            metrics.counter(
                "ftp_failures_total", "GridFTP transfers that exhausted retries"
            ).inc()
            self.obs.events.emit(
                "transfer_failed",
                message=f"{name}: {src.name} -> {dst.name} exhausted retries",
                severity="warning",
                file=name,
                src=src.name,
                dst=dst.name,
                mb=size_mb,
                attempts=policy.max_attempts,
            )
            raise last_error

        return self.env.process(self.obs.tracer.wrap(span, run()))

    def third_party(
        self,
        src_se: Node,
        dst_se: Node,
        name: str,
        size_mb: float,
        streams: Optional[int] = None,
        retries: Optional[int] = 2,
    ) -> Process:
        """SE→SE third-party transfer (server-to-server, client off-path).

        Classic GridFTP third-party mode: the control channel tells the
        source SE to push straight to the destination SE, so the payload
        crosses only the inter-site links between the two storage
        elements — never the client WAN.  This is the replica-migration
        primitive the federation broker uses to move whole-dataset copies
        toward sessions (Allcock et al.'s replica-management transport).

        Timing and retry semantics are exactly :meth:`transfer_file`
        (both SE spindles are charged); only the accounting differs so
        migrations are distinguishable from staging traffic.
        """
        metrics = self.obs.metrics
        span = self.obs.tracer.start(
            "ftp.third_party",
            file=name,
            src=src_se.name,
            dst=dst_se.name,
            mb=size_mb,
        )

        def run():
            stats = yield self.transfer_file(
                src_se, dst_se, name, size_mb, streams=streams, retries=retries
            )
            metrics.counter(
                "ftp_third_party_transfers_total",
                "Completed SE-to-SE third-party transfers",
            ).inc()
            metrics.counter(
                "ftp_third_party_mb_total",
                "Payload moved by third-party transfers (MB)",
            ).inc(size_mb)
            return stats

        return self.env.process(self.obs.tracer.wrap(span, run()))

    def scatter(
        self,
        source: StorageElement,
        destinations: Sequence[Node],
        parts: Sequence[Tuple[str, float]],
        streams: Optional[int] = None,
    ) -> Process:
        """Move split *parts* to *destinations*, one part per node, pipelined.

        Parts are read from the SE spindle strictly in order (serial); each
        part's network transfer starts as soon as its read finishes and
        overlaps with the next read.  A part delivery that fails mid-flight
        (injected failure or link outage) is restarted under the service's
        :class:`RetryPolicy` without re-reading the spindle; the report is
        only returned once every part landed.  The process value is a
        :class:`ScatterReport`.
        """
        if len(parts) != len(destinations):
            raise TransferError(
                f"{len(parts)} parts for {len(destinations)} destinations"
            )
        cap = self._flow_cap(streams)
        tracer = self.obs.tracer
        metrics = self.obs.metrics
        span = tracer.start(
            "ftp.scatter", parts=len(parts), mb=sum(p[1] for p in parts)
        )

        policy = self.retry_policy

        def run():
            started = self.env.now
            if self.setup_overhead:
                yield self.env.timeout(self.setup_overhead)
            sends: List[Process] = []
            for (part_name, part_mb), dest in zip(parts, destinations):
                # Serial stage: the single spindle.
                yield source.sequential_read(part_mb)
                salt = next(self._transfer_seq)

                def attempt(part_name=part_name, part_mb=part_mb, dest=dest):
                    if self._consume_failure():
                        # Mid-flight abort: half the transfer time is lost
                        # (same restart model as transfer_file).
                        yield self.network.transfer(
                            source.name, dest.name, part_mb / 2, stream_cap=cap
                        )
                        raise TransferError(
                            f"scatter of {part_name!r} to {dest.name} "
                            f"aborted mid-flight"
                        )
                    stats = yield self.network.transfer(
                        source.name, dest.name, part_mb, stream_cap=cap
                    )
                    yield dest.disk_write(part_mb)
                    dest.store_file(part_name, part_mb)
                    metrics.counter(
                        "ftp_bytes_mb_total", "Payload moved over GridFTP (MB)"
                    ).inc(part_mb)
                    return stats

                def deliver(attempt=attempt, salt=salt):
                    attempt_started = self.env.now
                    last_error: Optional[Exception] = None
                    for attempt_index in range(policy.max_attempts):
                        try:
                            result = yield self.env.process(attempt())
                            return result
                        except (TransferError, LinkDown) as exc:
                            last_error = exc
                            metrics.counter(
                                "ftp_retries_total",
                                "GridFTP transfer attempts that failed "
                                "mid-flight",
                            ).inc()
                            if not policy.should_retry(
                                attempt_index, self.env.now - attempt_started
                            ):
                                break
                            delay = policy.delay(attempt_index, salt)
                            if delay:
                                yield self.env.timeout(delay)
                    metrics.counter(
                        "ftp_failures_total",
                        "GridFTP transfers that exhausted retries",
                    ).inc()
                    raise last_error

                sends.append(
                    self.env.process(
                        tracer.trace_gen(
                            "ftp.part",
                            deliver(),
                            file=part_name,
                            dst=dest.name,
                            mb=part_mb,
                        )
                    )
                )
            done = yield self.env.all_of(sends)
            stats_list = [proc.value for proc in sends]
            self.log.extend(stats_list)
            return ScatterReport(
                started_at=started,
                finished_at=self.env.now,
                per_part=stats_list,
            )

        return self.env.process(tracer.wrap(span, run()))

    def broadcast(
        self,
        source: Node,
        destinations: Sequence[Node],
        name: str,
        size_mb: float,
        streams: Optional[int] = None,
    ) -> Process:
        """Send the same small file (analysis code) to every destination.

        All sends run in parallel; one setup overhead is charged per
        destination (each is its own control channel).  The process value is
        the list of per-destination :class:`TransferStats`.
        """
        tracer = self.obs.tracer
        span = tracer.start(
            "ftp.broadcast", file=name, fanout=len(destinations), mb=size_mb
        )

        def run():
            sends = [
                self.transfer_file(
                    source, dest, name, size_mb, streams=streams
                )
                for dest in destinations
            ]
            yield self.env.all_of(sends)
            return [proc.value for proc in sends]

        return self.env.process(tracer.wrap(span, run()))
