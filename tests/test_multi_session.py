"""Concurrency tests: multiple simultaneous sessions on one site."""

import numpy as np
import pytest

from repro.analysis import counting, higgs
from repro.client.client import IPAClient
from repro.core.site import GridSite, SiteConfig


def build_site(n_workers=8, max_engines=4, **kwargs):
    site = GridSite(
        SiteConfig(
            n_workers=n_workers, max_engines_per_session=max_engines, **kwargs
        )
    )
    site.register_dataset(
        "ds-a", "/t/ds-a", size_mb=30.0, n_events=1500,
        content={"kind": "ilc", "seed": 100},
    )
    site.register_dataset(
        "ds-b", "/t/ds-b", size_mb=30.0, n_events=1500,
        content={"kind": "ilc", "seed": 200},
    )
    return site


def test_two_concurrent_sessions_run_independently():
    site = build_site()
    alice = IPAClient(site, site.enroll_user("/CN=alice"))
    bob = IPAClient(site, site.enroll_user("/CN=bob"))
    results = {}

    def user_scenario(client, dataset, source, key):
        yield from client.obtain_proxy_and_connect(n_engines=4)
        yield from client.select_dataset(dataset)
        yield from client.upload_code(source)
        yield from client.run()
        final = yield from client.wait_for_completion(poll_interval=3.0)
        results[key] = final
        yield from client.close()

    p1 = site.env.process(
        user_scenario(alice, "ds-a", higgs.SOURCE, "alice")
    )
    p2 = site.env.process(
        user_scenario(bob, "ds-b", counting.SOURCE, "bob")
    )
    site.env.run(until=site.env.all_of([p1, p2]))

    # Both sessions completed with their own analyses over their own data.
    assert results["alice"].progress.events_processed == 1500
    assert results["bob"].progress.events_processed == 1500
    assert results["alice"].tree.exists("/higgs/dijet_mass")
    assert not results["alice"].tree.exists("/counts/process")
    assert results["bob"].tree.exists("/counts/process")
    assert not results["bob"].tree.exists("/higgs/dijet_mass")
    # All workers freed afterwards.
    assert site.scheduler.idle_worker_count == 8


def test_concurrent_sessions_get_disjoint_workers():
    site = build_site()
    alice = IPAClient(site, site.enroll_user("/CN=alice"))
    bob = IPAClient(site, site.enroll_user("/CN=bob"))
    workers = {}

    def scenario(client, key):
        info = yield from client.obtain_proxy_and_connect(n_engines=4)
        summary = yield from client.status()
        workers[key] = {
            ref.worker
            for ref in site.registry.engines(info.session_id)
        }

    p1 = site.env.process(scenario(alice, "alice"))
    p2 = site.env.process(scenario(bob, "bob"))
    site.env.run(until=site.env.all_of([p1, p2]))
    assert len(workers["alice"]) == 4
    assert len(workers["bob"]) == 4
    assert workers["alice"].isdisjoint(workers["bob"])


def test_oversubscribed_site_second_session_waits():
    """With all workers taken, a second session waits for the first to close."""
    site = build_site(n_workers=4, max_engines=4)
    alice = IPAClient(site, site.enroll_user("/CN=alice"))
    bob = IPAClient(site, site.enroll_user("/CN=bob"))
    timeline = {}

    def alice_scenario():
        yield from alice.obtain_proxy_and_connect(n_engines=4)
        timeline["alice_ready"] = site.env.now
        yield site.env.timeout(100.0)
        yield from alice.close()
        timeline["alice_closed"] = site.env.now

    def bob_scenario():
        yield site.env.timeout(10.0)  # arrives while alice holds everything
        yield from bob.obtain_proxy_and_connect(n_engines=4)
        timeline["bob_ready"] = site.env.now
        yield from bob.close()

    p1 = site.env.process(alice_scenario())
    p2 = site.env.process(bob_scenario())
    site.env.run(until=site.env.all_of([p1, p2]))
    assert timeline["bob_ready"] > timeline["alice_closed"] - 1.0


def test_aida_manager_keeps_sessions_separate():
    site = build_site()
    alice = IPAClient(site, site.enroll_user("/CN=alice"))
    bob = IPAClient(site, site.enroll_user("/CN=bob"))
    results = {}

    def scenario(client, dataset, key):
        yield from client.obtain_proxy_and_connect(n_engines=2)
        yield from client.select_dataset(dataset)
        yield from client.upload_code(counting.SOURCE)
        yield from client.run()
        final = yield from client.wait_for_completion(poll_interval=3.0)
        results[key] = final.tree.get("/counts/process").heights()
        yield from client.close()

    p1 = site.env.process(scenario(alice, "ds-a", "alice"))
    p2 = site.env.process(scenario(bob, "ds-b", "bob"))
    site.env.run(until=site.env.all_of([p1, p2]))
    # Different seeds -> different process mixes; no cross-contamination.
    assert not np.array_equal(results["alice"], results["bob"])
    assert results["alice"].sum() == 1500
    assert results["bob"].sum() == 1500


def test_tokens_are_per_session():
    site = build_site()
    alice = IPAClient(site, site.enroll_user("/CN=alice"))
    bob = IPAClient(site, site.enroll_user("/CN=bob"))

    def scenario():
        info_a = yield from alice.obtain_proxy_and_connect(n_engines=2)
        info_b = yield from bob.obtain_proxy_and_connect(n_engines=2)
        assert info_a.token != info_b.token
        # Bob's token works against Alice's session id on the RMI channel
        # (the paper's RMI gating is session-creation-based, not per-call
        # authorization) — but closing Bob revokes only Bob's token.
        yield from bob.close()
        result = yield from alice.poll()
        assert result.progress.session_id == info_a.session_id
        yield from alice.close()

    site.env.run(until=site.env.process(scenario()))


def test_more_engines_than_workers_rejected():
    """Requesting more engines than workers would deadlock: refused."""
    site = build_site(n_workers=2, max_engines=8)
    client = IPAClient(site, site.enroll_user("/CN=alice"))

    def scenario():
        client.obtain_proxy()
        with pytest.raises(Exception, match="only 2 workers"):
            yield from client.connect(n_engines=4)
        info = yield from client.connect(n_engines=2)
        assert info.n_engines == 2
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))


def test_switch_dataset_mid_session():
    """§1: 'change the dataset during the analysis session'."""
    site = build_site()
    client = IPAClient(site, site.enroll_user("/CN=alice"))
    results = {}

    def scenario():
        yield from client.obtain_proxy_and_connect(n_engines=2)
        yield from client.select_dataset("ds-a")
        yield from client.upload_code(counting.SOURCE)
        yield from client.run()
        first = yield from client.wait_for_completion(poll_interval=3.0)
        results["first"] = first.tree.get("/counts/process").heights()

        # Switch datasets in the same session; rewind clears old results.
        yield from client.select_dataset("ds-b")
        yield from client.rewind()
        yield from client.run()
        second = yield from client.wait_for_completion(poll_interval=3.0)
        results["second"] = second.tree.get("/counts/process").heights()
        results["progress"] = second.progress
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    assert results["progress"].events_processed == 1500
    assert results["first"].sum() == 1500
    assert results["second"].sum() == 1500
    # Different seeds: the mixtures differ, and no events leaked across.
    assert not np.array_equal(results["first"], results["second"])
