"""Calibration constants of the timing model, with provenance.

Every number below is fitted to the paper's measurements (Tables 1 and 2,
X = 471 MB, N up to 16) — see EXPERIMENTS.md for the full derivation and
for the places where the paper's own numbers are mutually inconsistent
(its fitted equations do not reproduce its tables; we calibrate to the
tables and reproduce the equations separately in
:mod:`repro.bench.model`).

Derivations (X in MB, N nodes):

* ``wan_bandwidth_mbps`` — Table 1: 471 MB over the WAN in 32 min
  (1920 s) → 0.2453 MB/s.
* ``lan_fetch_bandwidth_mbps`` — Table 2 "move whole": 63 s flat
  → 471/63 = 7.48 MB/s repository→SE.
* ``split_rate_s_per_mb`` — Table 2 "split" ≈ 118 s → 0.25 s/MB (the
  paper's own fit uses 0.25·X as well).
* ``se_disk_mbps`` + ``worker_link_mbps`` — Table 2 "move parts"
  ≈ 46 + 62/N: a serial SE disk pass at 10.24 MB/s (471/46) pipelined
  with per-worker links at 7.6 MB/s (471/62).
* ``local_analysis_rate_s_per_mb`` — Table 1: 13 min (780 s) for 471 MB
  on the 1.7 GHz desktop → 1.656 s/MB.
* ``grid_analysis_rate_s_per_mb`` + ``engine_serial_overhead_s`` —
  Table 2 analysis column fitted as ``57 + 0.5796·X/N`` (matches the
  measured endpoints 330 s @ N=1 and 78 s @ N=16; the middle points are
  noisy in the paper).  The per-worker rate coming out *faster* than the
  desktop rate despite slower clocks is forced by the paper's own
  numbers — most plausibly the local measurement included I/O overheads
  the worker number did not; we keep the two rates as independent
  constants rather than deriving them from clock speeds.
* ``code_stage_overhead_s`` — Table 1: 7 s to stage 15 kB; the transfer
  itself is negligible, so it is almost all fixed service overhead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Calibration:
    """Calibrated timing-model constants (see module docstring)."""

    # -- network (MB/s) --------------------------------------------------
    wan_bandwidth_mbps: float = 0.2453
    wan_latency_s: float = 0.1
    lan_fetch_bandwidth_mbps: float = 7.476
    worker_link_mbps: float = 7.597
    lan_latency_s: float = 0.001
    #: Dedicated SE↔SE links between federated sites (third-party
    #: transfers).  Research-network class, an order of magnitude above
    #: the paper's commodity client WAN but well under any LAN.
    intersite_wan_mbps: float = 2.5
    intersite_wan_latency_s: float = 0.05

    # -- storage element ---------------------------------------------------
    se_disk_mbps: float = 10.24
    split_rate_s_per_mb: float = 0.25
    split_per_file_overhead_s: float = 0.2

    # -- code staging ---------------------------------------------------
    code_stage_overhead_s: float = 6.5

    # -- analysis ---------------------------------------------------------
    local_analysis_rate_s_per_mb: float = 1.656
    grid_analysis_rate_s_per_mb: float = 0.5796
    engine_serial_overhead_s: float = 55.0
    engine_startup_s: float = 2.0
    code_load_s: float = 0.5

    # -- services ---------------------------------------------------------
    soap_latency_s: float = 0.25
    rmi_latency_s: float = 0.05
    merge_cost_per_tree_s: float = 0.05
    gram_auth_overhead_s: float = 0.5
    interactive_dispatch_s: float = 1.0
    batch_dispatch_s: float = 30.0

    # -- engine chunking -----------------------------------------------------
    chunk_events: int = 500
    snapshot_every_chunks: int = 1

    def __post_init__(self) -> None:
        for name in (
            "wan_bandwidth_mbps",
            "lan_fetch_bandwidth_mbps",
            "worker_link_mbps",
            "se_disk_mbps",
            "intersite_wan_mbps",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")
        for name in (
            "split_rate_s_per_mb",
            "local_analysis_rate_s_per_mb",
            "grid_analysis_rate_s_per_mb",
            "engine_serial_overhead_s",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.chunk_events < 1:
            raise ValueError("chunk_events must be >= 1")


#: The calibration used throughout the benchmarks.
DEFAULT_CALIBRATION = Calibration()
