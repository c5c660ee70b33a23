"""Concurrent-session serving: poll coalescing, admission backpressure.

End-to-end and property coverage for the PR-8 concurrency plane: many
clients polling one session share a single incremental merge (with
replies bit-identical to per-client merges), and a site running per-VO
admission control pushes back with ``RetryAfter`` that the client honors
with backoff.
"""

import random

import pytest

from repro.aida.hist1d import Histogram1D
from repro.analysis import counting
from repro.client.client import IPAClient
from repro.client.plugins import RemoteDataPlugin
from repro.core.site import GridSite, SiteConfig
from repro.engine.engine import AnalysisEngine
from repro.obs import Observability
from repro.resilience.retry import RetryPolicy
from repro.services.aida_manager import AIDAManagerService
from repro.services.envelope import RetryAfter
from repro.sim import Environment
from tests.merge_oracle import reference_merge


def build_site(**kwargs):
    site = GridSite(SiteConfig(**kwargs))
    site.register_dataset(
        "ds-a", "/t/ds-a", size_mb=30.0, n_events=1500,
        content={"kind": "ilc", "seed": 100},
    )
    return site


# -- e2e: many viewers on one session -----------------------------------


def test_interleaved_polls_from_many_clients_share_one_merge():
    # The coalesce window keeps an idle merge joinable: without it only
    # polls overlapping a *dirty* (nonzero-latency) merge coalesce.
    site = build_site(n_workers=4, poll_coalesce_window_s=0.05)
    env = site.env
    alice = IPAClient(site, site.enroll_user("/CN=alice"))
    n_viewers, n_rounds = 4, 5
    polled = {}  # (round, viewer) -> (tree_dict, merge_generation)
    merges_during_rounds = {}

    def poll_once(plugin, round_no, index):
        tree, progress = yield from plugin.poll()
        polled[(round_no, index)] = (
            tree.to_dict(), progress.merge_generation
        )

    def scenario():
        info = yield from alice.obtain_proxy_and_connect(n_engines=4)
        yield from alice.select_dataset("ds-a")
        yield from alice.upload_code(counting.SOURCE)
        yield from alice.run()
        viewers = []
        for index in range(n_viewers):
            plugin = RemoteDataPlugin(
                site.container, client_id=f"viewer-{index}"
            )
            plugin.bind(info.session_id, info.token)
            viewers.append(plugin)
        before = len(site.aida.merge_log)
        for round_no in range(n_rounds):
            yield env.timeout(2.0)
            polls = [
                env.process(poll_once(plugin, round_no, index))
                for index, plugin in enumerate(viewers)
            ]
            yield env.all_of(polls)
        merges_during_rounds["n"] = len(site.aida.merge_log) - before
        # Every viewer ends on the same cursor as every other.
        cursors = {
            site.aida.poll_cursor(info.session_id, f"viewer-{index}")
            for index in range(n_viewers)
        }
        assert len(cursors) == 1
        yield from alice.wait_for_completion(poll_interval=2.0)
        yield from alice.close()

    env.run(until=env.process(scenario()))

    # Within each synchronized round all viewers saw the identical tree
    # and the identical merge generation (bit-for-bit, dict equality).
    for round_no in range(n_rounds):
        replies = [
            polled[(round_no, index)] for index in range(n_viewers)
        ]
        assert all(reply == replies[0] for reply in replies)
    # Coalescing: n_viewers polls per round cost one merge, not four.
    assert merges_during_rounds["n"] <= n_rounds


# -- e2e: admission refusal + client backoff ----------------------------


def test_admission_rejection_then_client_retry_succeeds():
    site = build_site(
        n_workers=8,
        max_concurrent_engines=4,
        admission_queue_depth=0,
        admission_retry_after_s=3.0,
    )
    env = site.env
    alice = IPAClient(site, site.enroll_user("/CN=alice"))
    bob = IPAClient(site, site.enroll_user("/CN=bob"))
    timeline = {}

    def alice_scenario():
        yield from alice.obtain_proxy_and_connect(n_engines=4)
        timeline["alice_up"] = env.now
        yield env.timeout(40.0)
        yield from alice.close()
        timeline["alice_closed"] = env.now

    def bob_scenario():
        yield env.timeout(5.0)
        bob.obtain_proxy()
        # Without a retry policy the refusal propagates immediately,
        # carrying the site's back-off hint.
        try:
            yield from bob.connect(n_engines=2)
        except RetryAfter as fault:
            timeline["bob_refused"] = env.now
            timeline["hint"] = fault.retry_after
        # With a policy the client keeps retrying, waiting at least the
        # server hint between attempts, until alice frees the slots.
        yield from bob.connect(
            n_engines=2,
            admission_retry=RetryPolicy(
                max_attempts=30, base_delay=1.0, multiplier=1.0,
                max_delay=30.0,
            ),
        )
        timeline["bob_up"] = env.now
        yield from bob.close()

    p1 = env.process(alice_scenario())
    p2 = env.process(bob_scenario())
    env.run(until=env.all_of([p1, p2]))

    assert "bob_refused" in timeline
    assert timeline["hint"] == pytest.approx(3.0)
    # Bob only got in after alice released her engine slots.
    assert timeline["bob_up"] >= timeline["alice_closed"]
    # The slots are back once both sessions closed.
    assert site.admission.active_total == 0


def test_admission_slots_released_when_session_setup_fails():
    # A refused GRAM submission must hand the admitted slots back —
    # otherwise a failing session permanently leaks site capacity.
    site = build_site(n_workers=4, max_concurrent_engines=4)
    env = site.env
    alice = IPAClient(site, site.enroll_user("/CN=alice"))
    site.gram.inject_failures(10)  # exhausts submit_with_retry

    def scenario():
        alice.obtain_proxy()
        with pytest.raises(Exception):
            yield from alice.connect(n_engines=4)

    env.run(until=env.process(scenario()))
    assert site.admission.active_total == 0
    assert site.admission.free == 4


# -- unit: cursors + redundant-poll accounting --------------------------


def _engine_with_data(engine_id, fills):
    engine = AnalysisEngine(engine_id)
    engine.tree.put("/h", Histogram1D("h", bins=10, lower=0.0, upper=1.0))
    for value in fills:
        engine.tree.get("/h").fill(value)
    return engine


def test_poll_cursor_tracks_generation_and_counts_redundant_polls():
    env = Environment()
    obs = Observability(env, enabled=True)
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0, obs=obs)
    engine = _engine_with_data("e0", [0.1, 0.5])
    manager.submit_snapshot("s1", engine.take_snapshot())

    assert manager.poll_cursor("s1", "c1") is None
    env.run(until=manager.merged("s1", client_id="c1"))
    assert manager.merge_generation("s1") == 1
    assert manager.poll_cursor("s1", "c1") == 1
    redundant = obs.metrics.counter(
        "aida_polls_redundant_total", ""
    )
    assert redundant.total() == 0
    # Nothing new: the same generation is re-served and counted.
    env.run(until=manager.merged("s1", client_id="c1"))
    assert manager.poll_cursor("s1", "c1") == 1
    assert redundant.total() == 1
    # Fresh data bumps the generation; the re-poll is not redundant.
    engine.tree.get("/h").fill(0.9)
    manager.submit_snapshot("s1", engine.take_snapshot())
    env.run(until=manager.merged("s1", client_id="c1"))
    assert manager.poll_cursor("s1", "c1") == 2
    assert redundant.total() == 1


# -- the generation is a validator of the served tree -------------------------


def test_rewind_moves_the_generation_of_the_emptied_tree():
    env = Environment()
    obs = Observability(env, enabled=True)
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0, obs=obs)
    engine = _engine_with_data("e0", [0.1, 0.5])
    manager.submit_snapshot("s1", engine.take_snapshot())
    before, progress = env.run(until=manager.merged("s1", client_id="c1"))
    served = progress.merge_generation
    manager.begin_run("s1", 1)
    after, progress = env.run(until=manager.merged("s1", client_id="c1"))
    # The rewind emptied the root: that is a different tree, so it must
    # be served under a different (greater) generation, and the poll that
    # fetched it was not redundant.
    assert before["objects"] and not after["objects"]
    assert progress.merge_generation > served
    assert obs.metrics.counter("aida_polls_redundant_total", "").total() == 0


def test_generation_survives_checkpoint_and_never_repeats_after_a_crash():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    engine = _engine_with_data("e0", [0.1])
    manager.submit_snapshot("s1", engine.take_snapshot())
    env.run(until=manager.merged("s1"))
    state = manager.checkpoint_state("s1")
    assert state["generation"] == manager.merge_generation("s1") == 1
    # Served after the checkpoint was written: the checkpoint never saw it.
    engine.tree.get("/h").fill(0.7)
    manager.submit_snapshot("s1", engine.take_snapshot())
    newest, progress = env.run(until=manager.merged("s1"))
    held = progress.merge_generation
    assert held == 2

    manager.crash()
    manager.restart()
    manager.restore_state("s1", state)
    assert manager.merge_generation("s1") > held
    # The restored tree is the checkpoint's (older) one.  A client still
    # holding generation 2 must be sent it, not told "not modified".
    restored, progress = env.run(until=manager.merged("s1", have=held))
    assert restored is not None and restored != newest
    assert progress.merge_generation > held

    # A different manager process restoring the same checkpoint resumes
    # from the number the checkpoint carries.
    other = AIDAManagerService(env, merge_cost_per_tree=0.0)
    other.restore_state("s1", state)
    assert other.merge_generation("s1") == 1
    _, progress = env.run(until=other.merged("s1"))
    assert progress.merge_generation == 2


# -- conditional polls ----------------------------------------------------------


def test_not_modified_reply_costs_the_same_and_skips_the_tree():
    env = Environment()
    obs = Observability(env, enabled=True)
    manager = AIDAManagerService(env, merge_cost_per_tree=0.25, obs=obs)
    engine = _engine_with_data("e0", [0.1, 0.5])
    manager.submit_snapshot("s1", engine.take_snapshot())
    tree_dict, progress = env.run(until=manager.merged("s1", client_id="c1"))
    assert tree_dict is not None and env.now == 0.25
    have = progress.merge_generation
    # Same validator: no tree, fresh progress, cursor and counters as ever.
    tree_dict, progress = env.run(
        until=manager.merged("s1", client_id="c1", have=have)
    )
    assert tree_dict is None
    assert progress.merge_generation == have and progress.merged_at == 0.25
    assert obs.metrics.counter("aida_polls_redundant_total", "").total() == 1
    # A stale (or foreign) validator gets the tree.
    tree_dict, _ = env.run(until=manager.merged("s1", have=have - 1))
    assert tree_dict is not None
    # New data: charged the same 0.25 s whether or not a validator came.
    engine.tree.get("/h").fill(0.9)
    manager.submit_snapshot("s1", engine.take_snapshot())
    tree_dict, progress = env.run(until=manager.merged("s1", have=have))
    assert tree_dict is not None and env.now == 0.5
    assert progress.merge_generation == have + 1


def test_joiners_are_told_not_modified_one_by_one():
    env = Environment()
    obs = Observability(env, enabled=True)
    manager = AIDAManagerService(
        env, merge_cost_per_tree=0.1, coalesce_window_s=0.05, obs=obs
    )
    engine = _engine_with_data("e0", [0.2])
    manager.submit_snapshot("s1", engine.take_snapshot())
    _, progress = env.run(until=manager.merged("s1"))
    current = progress.merge_generation
    replies = []

    def poll(client_id, have):
        reply = yield manager.merged("s1", client_id=client_id, have=have)
        replies.append((client_id, reply[0] is None, env.now))

    # Leader up to date, joiners a mix; one shared merge serves them all,
    # in arrival order, each according to what it holds.
    haves = [current, current, None, current - 1, current, current]
    merges_before = len(manager.merge_log)
    for index, have in enumerate(haves):
        env.process(poll(f"c{index}", have))
    env.run()
    assert len(manager.merge_log) - merges_before == 1
    assert [r[0] for r in replies] == [f"c{i}" for i in range(len(haves))]
    assert [r[1] for r in replies] == [have == current for have in haves]
    assert len({r[2] for r in replies}) == 1
    for index in range(len(haves)):
        assert manager.poll_cursor("s1", f"c{index}") == current
    coalesced = obs.metrics.counter("aida_polls_coalesced_total", "")
    assert coalesced.total() == len(haves) - 1
    joins = obs.tracer.find("aida.merge.join")
    assert len(joins) == len(haves) - 1 and all(s.finished for s in joins)


def test_plugin_rebind_drops_the_held_tree_and_anonymous_plugins_work():
    site = build_site(n_workers=2)
    env = site.env
    alice = IPAClient(site, site.enroll_user("/CN=alice"))
    seen = {}

    def scenario():
        info = yield from alice.obtain_proxy_and_connect(n_engines=2)
        yield from alice.select_dataset("ds-a")
        yield from alice.upload_code(counting.SOURCE)
        yield from alice.run()
        final = yield from alice.wait_for_completion(poll_interval=2.0)
        anonymous = RemoteDataPlugin(site.container)  # client_id=None
        anonymous.bind(info.session_id, info.token)
        first, progress = yield from anonymous.poll()
        again, _ = yield from anonymous.poll()
        # Not modified: the very same (shared, read-only) tree object.
        assert again is first
        assert first.to_dict() == final.tree.to_dict()
        anonymous.bind(info.session_id, info.token)
        rebound, _ = yield from anonymous.poll()
        assert rebound is not first and rebound.to_dict() == first.to_dict()
        seen["generation"] = progress.merge_generation
        yield from alice.close()

    env.run(until=env.process(scenario()))
    assert seen["generation"] >= 1


def test_viewers_cost_at_most_seven_and_a_half_kernel_events_per_poll():
    # The poll path's event budget, sim clock only: 64 viewers x 20
    # rounds on one 16-engine session under the serving profile the e2e
    # benchmark uses.  7.13 today; the Store-backed request loop with a
    # process per coalesced joiner cost 11.32 on exactly this shape.
    n_viewers, n_rounds, interval = 64, 20, 0.25
    site = build_site(
        n_workers=16,
        merge_fan_in=8,
        service_concurrency=4,
        service_dispatch_overhead_s=0.002,
        poll_coalesce_window_s=0.05,
    )
    env = site.env
    alice = IPAClient(site, site.enroll_user("/CN=alice"))
    counted = {"steps": 0, "polls": 0}

    def viewer(plugin, phase):
        yield env.timeout(phase)
        for _ in range(n_rounds):
            yield from plugin.poll()
            counted["polls"] += 1
            yield env.timeout(interval)

    def scenario():
        info = yield from alice.obtain_proxy_and_connect(n_engines=16)
        yield from alice.select_dataset("ds-a")
        yield from alice.upload_code(counting.SOURCE)
        yield from alice.run()
        counted["steps"] = 0  # the budget covers the viewing phase only
        viewers = []
        for index in range(n_viewers):
            plugin = RemoteDataPlugin(site.container, client_id=f"v{index}")
            plugin.bind(info.session_id, info.token)
            viewers.append(
                env.process(viewer(plugin, interval * index / n_viewers))
            )
        yield env.all_of(viewers)

    done = env.process(scenario())
    while not done.processed:
        env.step()
        counted["steps"] += 1
    assert counted["polls"] == n_viewers * n_rounds
    assert counted["steps"] / counted["polls"] <= 7.5


def test_drop_session_clears_coalescing_state():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    engine = _engine_with_data("e0", [0.3])
    manager.submit_snapshot("s1", engine.take_snapshot())
    env.run(until=manager.merged("s1", client_id="c1"))
    assert manager.session_cache_keys("s1") != []
    manager.drop_session("s1")
    assert manager.session_cache_keys("s1") == []
    assert manager.poll_cursor("s1", "c1") is None


# -- property: coalesced replies equal the reference flat merge ---------


@pytest.mark.parametrize("seed", range(4))
def test_coalesced_polls_bit_identical_to_uncoalesced_reference(seed):
    rng = random.Random(seed)
    env = Environment()
    obs = Observability(env, enabled=True)
    manager = AIDAManagerService(
        env,
        merge_cost_per_tree=0.01,
        obs=obs,
        coalesce=True,
        coalesce_window_s=0.05,
    )
    engines = {
        f"e{i}": _engine_with_data(f"e{i}", [rng.random()]) for i in range(3)
    }
    #: engine -> deep copy of its tree at the latest accepted snapshot.
    latest = {}
    n_clients = 5

    def poll(client_id, results):
        tree_dict, progress = yield manager.merged(
            "s1", client_id=client_id
        )
        results.append((tree_dict, progress.merge_generation))

    for _ in range(8):
        # A random batch of new data lands...
        for engine_id in sorted(engines):
            if rng.random() < 0.7:
                engine = engines[engine_id]
                for _ in range(rng.randrange(1, 4)):
                    engine.tree.get("/h").fill(rng.random())
                status = manager.submit_snapshot(
                    "s1", engine.take_snapshot()
                )
                if status == "resync":
                    status = manager.submit_snapshot(
                        "s1", engine.take_snapshot(full=True)
                    )
                assert status == "accepted"
                latest[engine_id] = engine.tree.copy()
        # ...then every client polls at the same instant.
        merges_before = len(manager.merge_log)
        results = []
        polls = [
            env.process(poll(f"c{i}", results)) for i in range(n_clients)
        ]
        env.run(until=env.all_of(polls))
        # One shared merge served everyone...
        assert len(manager.merge_log) - merges_before == 1
        # ...and every reply is byte-for-byte the reference flat merge.
        ref = reference_merge(latest)
        generation = results[0][1]
        for tree_dict, reply_generation in results:
            assert tree_dict == ref
            assert reply_generation == generation
        for index in range(n_clients):
            assert manager.poll_cursor("s1", f"c{index}") == generation

    # The coalesced-poll counter saw every join (leader polls excluded).
    coalesced = obs.metrics.counter("aida_polls_coalesced_total", "")
    assert coalesced.total() > 0
