"""Config classes are a ratchet: a knob is added by editing these lists."""

from dataclasses import fields

from repro.core.config import Calibration
from repro.core.site import GridSite, SiteConfig
from repro.resilience import RecoveryConfig


def test_site_config_fields_are_the_expected_thirteen():
    assert [f.name for f in fields(SiteConfig)] == [
        "n_workers",
        "max_engines_per_session",
        "merge_fan_in",
        "session_lifetime",
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


def test_recovery_config_fields_are_the_expected_five():
    assert [f.name for f in fields(RecoveryConfig)] == [
        "heartbeat_interval",
        "heartbeat_timeout",
        "spare_timeout",
        "dispatch_ack_timeout",
        "close_grace",
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
    assert site.session_service.durability.store is site.durable_store
    assert site.session_service.container is site.container


def test_default_site_always_runs_the_replica_and_recovery_planes():
    site = GridSite(SiteConfig())
    assert site.session_service.replicas is site.replicas
    assert site.injector.replicas is site.replicas
    assert site.session_service.recovery == RecoveryConfig()
