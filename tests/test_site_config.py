"""`SiteConfig` is a ratchet: a knob is added by editing this list."""

from dataclasses import fields

from repro.core.site import GridSite, SiteConfig


def test_site_config_fields_are_the_expected_eighteen():
    assert [f.name for f in fields(SiteConfig)] == [
        "n_workers",
        "max_engines_per_session",
        "merge_fan_in",
        "session_lifetime",
        "enable_recovery",
        "heartbeat_interval",
        "heartbeat_timeout",
        "enable_observability",
        "enable_replica_cache",
        "worker_cache_mb",
        "checkpoint_every_s",
        "service_concurrency",
        "service_dispatch_overhead_s",
        "poll_coalesce_window_s",
        "max_concurrent_engines",
        "vo_shares",
        "admission_queue_depth",
        "admission_retry_after_s",
    ]


def test_default_site_always_has_durability_and_a_container():
    site = GridSite(SiteConfig())
    assert site.durable_store is not None
    assert site.session_service.durability.store is site.durable_store
    assert site.session_service.container is site.container
