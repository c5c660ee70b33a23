"""Config classes and trimmed signatures are a ratchet: a knob is added
by editing these lists."""

import inspect
from dataclasses import fields

import pytest

from repro.core.config import Calibration
from repro.core.site import GridSite, SiteConfig
from repro.federation import FederatedClient
from repro.grid.admission import AdmissionController
from repro.grid.network import Network
from repro.grid.nodes import NodeSpec
from repro.grid.scheduler import QueueSpec
from repro.obs import Observability
from repro.resilience import DurableStore, RetryPolicy, SessionJournal
from repro.services.session import SessionService
from repro.services.wsrf import ResourceHome


def test_site_config_fields_are_the_expected_twelve():
    assert [f.name for f in fields(SiteConfig)] == [
        "n_workers",
        "max_engines_per_session",
        "merge_fan_in",
        "enable_observability",
        "worker_cache_mb",
        "checkpoint_every_s",
        "service_concurrency",
        "service_dispatch_overhead_s",
        "poll_coalesce_window_s",
        "max_concurrent_engines",
        "vo_shares",
        "admission_queue_depth",
    ]


@pytest.mark.parametrize("value", [0.0, -5.0])
def test_checkpoint_period_must_be_positive(value):
    # At 0 the checkpoint loop never lets the clock advance; below 0 the
    # kernel refuses the first checkpoint's delay mid-run.
    with pytest.raises(ValueError, match="checkpoint_every_s"):
        SiteConfig(checkpoint_every_s=value)


def _parameters(callable_):
    return [name for name in inspect.signature(callable_).parameters if name != "self"]


def test_trimmed_signatures_keep_only_their_parameters():
    assert _parameters(SessionService) == [
        "env",
        "gram",
        "registry",
        "catalog",
        "locator",
        "splitter",
        "codeloader",
        "aida",
        "ftp",
        "storage",
        "content_store",
        "calibration",
        "durable_store",
        "checkpoint_every_s",
        "container",
        "replicas",
        "obs",
        "admission",
    ]
    assert _parameters(SessionJournal) == ["store", "session_id"]
    assert _parameters(DurableStore.append) == ["name", "line"]
    assert _parameters(Observability) == ["env", "enabled"]
    assert _parameters(FederatedClient) == ["federation", "credential", "client_id"]
    assert _parameters(Network.add_link) == ["name", "a", "b", "bandwidth", "latency"]
    assert _parameters(AdmissionController) == [
        "env", "capacity", "shares", "queue_depth", "obs",
    ]
    assert [f.name for f in fields(QueueSpec)] == ["name", "priority", "dispatch_latency"]
    assert [f.name for f in fields(NodeSpec)] == ["disk_read_mbps", "disk_write_mbps"]
    home = ResourceHome("session")
    assert [name for name in dir(home) if not name.startswith("_")] == ["create", "resource_type"]
    assert [f.name for f in fields(RetryPolicy)] == [
        "max_attempts", "base_delay", "multiplier", "max_delay", "jitter", "seed",
    ]


def test_calibration_fields_are_the_expected_twenty_four():
    assert [f.name for f in fields(Calibration)] == [
        "wan_bandwidth_mbps",
        "wan_latency_s",
        "lan_fetch_bandwidth_mbps",
        "worker_link_mbps",
        "lan_latency_s",
        "intersite_wan_mbps",
        "intersite_wan_latency_s",
        "se_disk_mbps",
        "split_rate_s_per_mb",
        "split_per_file_overhead_s",
        "code_stage_overhead_s",
        "local_analysis_rate_s_per_mb",
        "grid_analysis_rate_s_per_mb",
        "engine_serial_overhead_s",
        "engine_startup_s",
        "code_load_s",
        "soap_latency_s",
        "rmi_latency_s",
        "merge_cost_per_tree_s",
        "gram_auth_overhead_s",
        "interactive_dispatch_s",
        "batch_dispatch_s",
        "chunk_events",
        "snapshot_every_chunks",
    ]


def test_default_site_always_has_durability_and_a_container():
    site = GridSite(SiteConfig())
    assert site.durable_store is not None
    assert site.session_service.durable_store is site.durable_store
    assert site.session_service.container is site.container


def test_default_site_always_runs_the_replica_and_recovery_planes():
    site = GridSite(SiteConfig())
    assert site.session_service.replicas is site.replicas
    assert site.injector.replicas is site.replicas
    assert site.session_service.supervisor.service is site.session_service
