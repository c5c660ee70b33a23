"""Tests: pluggable content readers (§2.3) and database locations (§3.4)."""

import numpy as np
import pytest

from repro.analysis import counting
from repro.client.client import IPAClient
from repro.core.site import GridSite, SiteConfig
from repro.dataset.events import EventBatch
from repro.services.content import ContentError, ContentStore


# ---------------------------------------------------------------------------
# Pluggable readers
# ---------------------------------------------------------------------------

def constant_reader(content, block_seed, n_events):
    """A trivial custom format: every event has one particle of energy E."""
    energy = float(content.get("energy", 1.0))
    return EventBatch(
        event_ids=np.arange(n_events),
        process=np.zeros(n_events, dtype=np.int16),
        weights=np.ones(n_events),
        offsets=np.arange(n_events + 1, dtype=np.int64),
        pdg=np.full(n_events, 81, dtype=np.int32),
        e=np.full(n_events, energy),
        px=np.zeros(n_events),
        py=np.zeros(n_events),
        pz=np.zeros(n_events),
    )


def test_register_kind_and_materialize():
    store = ContentStore()
    store.register_kind("constant", constant_reader)
    assert "constant" in store.kinds
    batch = store.events_for({"kind": "constant", "energy": 7.0, "seed": 1}, 10, 20)
    assert len(batch) == 10
    assert np.all(batch.e == 7.0)
    assert list(batch.event_ids) == list(range(10, 20))


def test_register_kind_validation():
    store = ContentStore()
    with pytest.raises(ContentError, match="non-empty"):
        store.register_kind("", constant_reader)
    with pytest.raises(ContentError, match="already registered"):
        store.register_kind("ilc", constant_reader)
    with pytest.raises(ContentError, match="callable"):
        store.register_kind("x", 42)


def test_builtin_kinds_present():
    assert ContentStore().kinds == ["ilc", "trading"]


def test_misbehaving_reader_detected():
    store = ContentStore()
    store.register_kind(
        "short", lambda content, seed, n: constant_reader(content, seed, n // 2)
    )
    with pytest.raises(ContentError, match="produced"):
        store.events_for({"kind": "short", "seed": 0}, 0, 10)


def test_custom_reader_through_full_pipeline():
    """§2.3: a format registered at runtime is picked up by the engines."""
    site = GridSite(SiteConfig(n_workers=2))
    site.content_store.register_kind("constant", constant_reader)
    site.register_dataset(
        "flat", "/custom/flat", size_mb=10.0, n_events=1000,
        content={"kind": "constant", "energy": 5.0, "seed": 0},
    )
    client = IPAClient(site, site.enroll_user("/CN=alice"))
    results = {}

    def scenario():
        yield from client.obtain_proxy_and_connect()
        yield from client.select_dataset("flat")
        yield from client.upload_code(counting.SOURCE)
        yield from client.run()
        final = yield from client.wait_for_completion(poll_interval=3.0)
        results["tree"] = final.tree
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    multiplicity = results["tree"].get("/counts/multiplicity")
    assert multiplicity.entries == 1000
    assert multiplicity.bin_height(1) == 1000  # every event has 1 particle


# ---------------------------------------------------------------------------
# Database locations
# ---------------------------------------------------------------------------

def build_pair():
    """Identical datasets, one file-located and one database-located."""
    site = GridSite(SiteConfig(n_workers=4))
    common = dict(
        size_mb=200.0, n_events=2000, content={"kind": "ilc", "seed": 88}
    )
    site.register_dataset("as-file", "/d/as-file", **common)
    site.register_dataset("as-db", "/d/as-db", kind="database", **common)
    client = IPAClient(site, site.enroll_user("/CN=alice"))
    return site, client


def stage(site, client, dataset_id):
    staged = {}

    def scenario():
        yield from client.obtain_proxy_and_connect()
        staged["result"] = yield from client.select_dataset(dataset_id)
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    return staged["result"]


def test_database_location_skips_fetch_and_split():
    site, client = build_pair()
    db_staged = stage(site, client, "as-db")
    assert db_staged.fetch_seconds == 0.0
    # Query planning only: far below the 0.25 s/MB split pass (50 s).
    assert db_staged.split_seconds < 5.0
    assert db_staged.move_parts_seconds > 0
    assert len(db_staged.parts) == 4


def test_database_vs_file_staging_delta():
    site_a, client_a = build_pair()
    file_staged = stage(site_a, client_a, "as-file")
    site_b, client_b = build_pair()
    db_staged = stage(site_b, client_b, "as-db")
    # The DB path saves the fetch (~27 s) and the split (~50 s) at 200 MB.
    assert db_staged.stage_seconds < file_staged.stage_seconds - 60
    # Scatter itself is similar for both.
    assert db_staged.move_parts_seconds == pytest.approx(
        file_staged.move_parts_seconds, rel=0.1
    )


def test_database_dataset_produces_same_results():
    """Location kind must not change the analyzed events."""
    from repro.services.content import ContentStore as CS

    site, client = build_pair()
    results = {}

    def scenario():
        yield from client.obtain_proxy_and_connect()
        yield from client.select_dataset("as-db")
        yield from client.upload_code(counting.SOURCE)
        yield from client.run()
        final = yield from client.wait_for_completion(poll_interval=3.0)
        results["heights"] = final.tree.get("/counts/process").heights()
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    # Reference: direct materialization of the same content.
    reference = CS().events_for({"kind": "ilc", "seed": 88}, 0, 2000)
    expected = np.bincount(reference.process, minlength=4).astype(float)
    assert np.allclose(results["heights"], expected)
