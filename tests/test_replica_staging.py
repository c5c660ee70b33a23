"""Integration tests: replica-aware staging through the full session stack.

Covers the §4 repeat-analysis scenario the replica subsystem exists for:
a second session on the same dataset must not re-download the whole file
across the WAN (the SE copy was registered after the first fetch), must
reuse worker-cached parts (warm stage), and must still produce merged
AIDA results bit-identical to a cold run.
"""

import pytest

from repro.analysis import counting
from repro.client.client import IPAClient
from repro.core.site import GridSite, SiteConfig
from repro.services.catalog import CatalogError


def build_site(n_workers=4, **kwargs):
    site = GridSite(
        SiteConfig(n_workers=n_workers, enable_observability=True, **kwargs)
    )
    site.register_dataset(
        "ds", "/t/ds", size_mb=40.0, n_events=2000,
        content={"kind": "ilc", "seed": 42},
    )
    return site


def run_session(
    site,
    cred,
    dataset="ds",
    n_engines=None,
    dataset_hint=None,
    analyze=False,
):
    """One complete session; returns staging + (optionally) result info."""
    client = IPAClient(site, cred)
    out = {}

    def scenario():
        yield from client.obtain_proxy_and_connect(
            n_engines=n_engines, dataset_hint=dataset_hint
        )
        out["workers"] = [
            ref.worker
            for ref in site.registry.engines(client.session.session_id)
        ]
        out["staged"] = yield from client.select_dataset(dataset)
        if analyze:
            yield from client.upload_code(counting.SOURCE)
            yield from client.run()
            final = yield from client.wait_for_completion(poll_interval=3.0)
            out["tree"] = final.tree.to_dict()
            out["progress"] = final.progress
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    return out


# ---------------------------------------------------------------------------
# The satellite bugfix: the SE copy is registered after the WAN fetch, so
# a second session never re-downloads the whole file.
# ---------------------------------------------------------------------------

def test_second_session_skips_wan_fetch():
    site = build_site()
    cred = site.enroll_user("/CN=alice")
    first = run_session(site, cred)["staged"]
    fetch_spans_after_first = len(site.obs.tracer.find("stage.fetch"))
    second = run_session(site, cred)["staged"]

    assert first.fetch_seconds > 0
    assert not first.fetch_skipped
    assert second.fetch_seconds == 0.0
    assert second.fetch_skipped
    # No new stage.fetch span: the WAN transfer simply never happened.
    assert len(site.obs.tracer.find("stage.fetch")) == fetch_spans_after_first
    # And the warm stage is dramatically cheaper across every phase.
    assert second.split_seconds < first.split_seconds
    assert second.move_parts_seconds <= first.move_parts_seconds
    assert second.stage_seconds < first.stage_seconds / 5


def test_fully_warm_second_stage_is_all_local_hits():
    site = build_site()
    cred = site.enroll_user("/CN=alice")
    run_session(site, cred)
    second = run_session(site, cred, dataset_hint="ds")["staged"]
    assert second.local_hits == 4
    assert second.peer_hits == 0
    assert second.se_hits == 0
    assert second.cold_parts == 0
    # Bytes saved: every part plus the skipped whole-file fetch.
    assert second.saved_mb == pytest.approx(80.0)
    metrics = site.obs.metrics
    assert metrics.counter("replica_stage_hits_total").value(level="local") == 4
    assert metrics.counter("replica_stage_hits_total").value(level="whole") == 1
    assert metrics.counter("replica_bytes_saved_mb_total").total() == pytest.approx(80.0)


def test_cold_stage_timings_identical_with_and_without_cache():
    """A fully cold stage must cost exactly what the original pipeline did.

    The literal is the (fetch, split, move parts) breakdown of the §3.4
    pipeline for this site and dataset, measured when the replica cache
    could still be switched off (identical with it on or off).
    """
    site = build_site()
    cred = site.enroll_user("/CN=alice")
    staged = run_session(site, cred)["staged"]
    assert staged.cold_parts == 4
    assert (
        staged.fetch_seconds,
        staged.split_seconds,
        staged.move_parts_seconds,
    ) == (5.551454788657036, 10.8, 5.448559069369487)


# ---------------------------------------------------------------------------
# Pinned breakdowns: every staging case costs exactly what it always did.
# Each literal is (fetch, split, move parts, local, peer, se, cold parts).
# ---------------------------------------------------------------------------

def breakdown(staged):
    return (
        staged.fetch_seconds,
        staged.split_seconds,
        staged.move_parts_seconds,
        staged.local_hits,
        staged.peer_hits,
        staged.se_hits,
        staged.cold_parts,
    )


def build_db_site():
    site = build_site()
    site.register_dataset(
        "db", "/t/db", size_mb=40.0, n_events=2000,
        content={"kind": "ilc", "seed": 42}, kind="database",
    )
    return site


def test_cold_database_stage_timings_pinned():
    site = build_db_site()
    cred = site.enroll_user("/CN=alice")
    staged = run_session(site, cred, dataset="db")["staged"]
    assert breakdown(staged) == (
        0.0, 2.0, 5.448559069369487, 0, 0, 0, 4
    )


def test_partial_peer_stage_timings_pinned():
    site = build_site(n_workers=6)
    cred = site.enroll_user("/CN=alice")
    first = run_session(site, cred, n_engines=4)
    rm = site.replicas
    # holder_a's part moves to holder_b's cache only (SE part files of
    # both gone), so holder_a's slot must pull it from holder_b.
    holder_a, holder_b = first["workers"][0], first["workers"][1]
    moved_key = rm.caches[holder_a].keys()[0]
    size = rm.caches[holder_a].entry(moved_key).size_mb
    rm.caches[holder_a].remove(moved_key, reason="scratch-purge")
    for key in list(rm.caches[holder_b].keys()) + [moved_key]:
        rm.catalog.unregister(key, "se", reason="scratch-purge")
    rm.record_worker_part("ds", moved_key, holder_b, size)
    staged = run_session(site, cred, n_engines=4, dataset_hint="ds")["staged"]
    assert breakdown(staged) == (
        0.0, 0.25, 1.5683090693694837, 3, 1, 0, 0
    )


def test_partial_database_stage_timings_pinned():
    site = build_db_site()
    cred = site.enroll_user("/CN=alice")
    first = run_session(site, cred, dataset="db")
    victim = first["workers"][0]
    evicted_key = site.replicas.caches[victim].keys()[0]
    site.replicas.caches[victim].remove(evicted_key, reason="scratch-purge")
    staged = run_session(site, cred, dataset="db", dataset_hint="db")["staged"]
    assert breakdown(staged) == (
        0.0, 0.75, 2.5188715693694874, 3, 0, 0, 1
    )


def test_fully_local_restage_timings_pinned():
    site = build_site()
    cred = site.enroll_user("/CN=alice")
    run_session(site, cred)
    staged = run_session(site, cred, dataset_hint="ds")["staged"]
    assert breakdown(staged) == (0.0, 0.25, 0.0, 4, 0, 0, 0)


def test_restage_that_refetches_counts_the_fetch_once():
    """``stage_seconds`` is the sim time the stage took, WAN fetch included once."""
    site = build_site()
    cred = site.enroll_user("/CN=alice")
    first = run_session(site, cred)
    rm = site.replicas
    # One part leaves its worker cache and the SE, and the SE's whole
    # file is evicted: the re-stage must fetch, split and scatter it.
    victim = first["workers"][0]
    key = rm.caches[victim].keys()[0]
    rm.caches[victim].remove(key, reason="scratch-purge")
    rm.catalog.unregister(key, "se", reason="scratch-purge")
    assert rm.forget_whole("ds")

    client = IPAClient(site, cred)
    out = {}

    def scenario():
        yield from client.obtain_proxy_and_connect(dataset_hint="ds")
        started = site.env.now
        out["staged"] = yield site.env.process(
            site.session_service.add_dataset(client.session.session_id, "ds")
        )
        out["took"] = site.env.now - started
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    staged = out["staged"]
    assert staged.cold_parts == 1 and staged.fetch_seconds > 0
    assert staged.stage_seconds == pytest.approx(out["took"], abs=1e-9)


# ---------------------------------------------------------------------------
# Partial hits, peers, affinity
# ---------------------------------------------------------------------------

def test_partial_hit_moves_only_missing_parts():
    site = build_site()
    cred = site.enroll_user("/CN=alice")
    first = run_session(site, cred)
    # One holder loses its cached part (e.g. scratch cleanup): that part
    # comes back from the SE part file; the split pass is not re-run
    # because the SE still holds every part of this geometry.
    victim = first["workers"][0]
    evicted_key = site.replicas.caches[victim].keys()[0]
    site.replicas.caches[victim].remove(evicted_key, reason="scratch-purge")
    second = run_session(site, cred, dataset_hint="ds")["staged"]
    assert second.local_hits == 3
    assert second.se_hits + second.peer_hits == 1
    assert second.cold_parts == 0
    assert second.split_seconds < 1.0  # no split pass, just the consult
    assert second.move_parts_seconds < first["staged"].move_parts_seconds


def test_peer_fetch_serves_part_from_other_worker_cache():
    site = build_site(n_workers=6)
    cred = site.enroll_user("/CN=alice")
    first = run_session(site, cred, n_engines=4)
    rm = site.replicas
    # Consolidate two parts onto one worker (as a re-dispatch after a
    # failure would): holder_a's part now lives only on holder_b, which
    # already caches its own part — alignment cannot give holder_b both.
    holder_a, holder_b = first["workers"][0], first["workers"][1]
    moved_key = rm.caches[holder_a].keys()[0]
    size = rm.caches[holder_a].entry(moved_key).size_mb
    rm.caches[holder_a].remove(moved_key, reason="scratch-purge")
    # Drop the SE part files too, so the peer cache is the only source
    # short of a full re-split.
    for key in list(rm.caches[holder_b].keys()) + [moved_key]:
        rm.catalog.unregister(key, "se", reason="scratch-purge")
    rm.record_worker_part("ds", moved_key, holder_b, size)

    second = run_session(
        site, cred, n_engines=4, dataset_hint="ds", analyze=True
    )
    staged = second["staged"]
    assert staged.peer_hits == 1
    assert staged.cold_parts == 0
    assert second["progress"].events_processed == 2000
    assert site.obs.tracer.find("stage.peer_fetch")


def test_dataset_hint_places_engines_on_caching_workers():
    site = build_site(n_workers=8)
    cred = site.enroll_user("/CN=alice")
    first = run_session(site, cred, n_engines=4)
    second = run_session(site, cred, n_engines=4, dataset_hint="ds")
    assert set(second["workers"]) == set(first["workers"])
    assert second["staged"].local_hits == 4


# ---------------------------------------------------------------------------
# Correctness: warm results == cold results, invalidation works
# ---------------------------------------------------------------------------

def test_warm_session_results_bit_identical_to_cold():
    site = build_site()
    cred = site.enroll_user("/CN=alice")
    cold = run_session(site, cred, analyze=True)
    warm = run_session(site, cred, dataset_hint="ds", analyze=True)
    assert warm["staged"].local_hits == 4
    assert warm["tree"] == cold["tree"]  # exact dict (float-bit) equality


def test_second_registration_of_a_known_id_is_refused():
    """A location never changes, so no cached copy can go stale.

    Re-registering a known id (even with new content and a new path) is
    refused by the catalog before the locator is touched; every copy cut
    from the first registration keeps serving.
    """
    site = build_site()
    cred = site.enroll_user("/CN=alice")
    run_session(site, cred)
    location = site.locator.locate("ds")
    cached = {name: set(cache.keys()) for name, cache in site.replicas.caches.items()}
    assert any(cached.values())
    with pytest.raises(CatalogError):
        site.register_dataset(
            "ds", "/t/ds-v2", size_mb=80.0, n_events=4000,
            content={"kind": "ilc", "seed": 43},
        )
    assert site.locator.locate("ds") is location
    assert {
        name: set(cache.keys()) for name, cache in site.replicas.caches.items()
    } == cached
    warm = run_session(site, cred, dataset_hint="ds")["staged"]
    assert warm.local_hits == 4
    assert warm.cold_parts == 0


def test_node_failure_invalidates_its_replicas():
    site = build_site()
    cred = site.enroll_user("/CN=alice")
    first = run_session(site, cred)
    victim = first["workers"][0]
    site.injector.crash_worker(victim)
    assert len(site.replicas.caches[victim]) == 0
    assert site.replicas.catalog.hosts_with_dataset("ds").get(victim) is None
    site.injector.restore_worker(victim)
    # Restaging still works and the dead worker's part comes from the SE.
    second = run_session(site, cred, dataset_hint="ds")["staged"]
    assert second.local_hits == 3
    assert second.se_hits + second.peer_hits == 1


def test_worker_cache_capacity_limits_reuse():
    # Caches too small for a part: every stage stays cold, but correctness
    # and the whole-file fetch skip are unaffected.
    site = build_site(worker_cache_mb=5.0)  # parts are 10 MB each
    cred = site.enroll_user("/CN=alice")
    run_session(site, cred)
    assert all(len(c) == 0 for c in site.replicas.caches.values())
    second = run_session(site, cred)["staged"]
    assert second.local_hits == 0
    assert second.fetch_skipped  # SE whole-file + part files still help
    assert second.cold_parts == 0  # SE part files survive: scatter only
