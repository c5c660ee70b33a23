"""Concurrent-session serving: poll coalescing, admission backpressure.

End-to-end and property coverage for the PR-8 concurrency plane: many
clients polling one session share a single incremental merge (with
replies bit-identical to the reference fold), and a site running per-VO
admission control pushes back with ``RetryAfter`` that the client honors
with backoff.
"""

import dataclasses
import functools
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
from repro.services.aida_manager import AIDAManagerService, MergeProgress
from repro.services.combiner import MergeTree
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
    polled = {}  # (round, viewer) -> (tree.to_dict(), merge_generation)
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
            plugin = RemoteDataPlugin(site.container)
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
        # Every viewer ends on the same generation as every other.
        generations = {
            polled[(n_rounds - 1, index)][1] for index in range(n_viewers)
        }
        assert len(generations) == 1
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
    assert timeline["hint"] == pytest.approx(5.0)
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


# -- the generation is a validator of the served tree -------------------------


def _engine_with_data(engine_id, fills):
    engine = AnalysisEngine(engine_id)
    engine.tree.put("/h", Histogram1D("h", bins=10, lower=0.0, upper=1.0))
    for value in fills:
        engine.tree.get("/h").fill(value)
    return engine


def test_rewind_moves_the_generation_of_the_emptied_tree():
    env = Environment()
    obs = Observability(env, enabled=True)
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0, obs=obs)
    engine = _engine_with_data("e0", [0.1, 0.5])
    manager.submit_snapshot("s1", engine.take_snapshot())
    before, progress = env.run(until=manager.merged("s1"))
    served = progress.merge_generation
    manager.begin_run("s1", 1)
    after, progress = env.run(until=manager.merged("s1", have=served))
    # The rewind emptied the root: that is a different tree, so it must
    # be served under a different (greater) generation, and a client
    # holding the old one is sent it.
    assert before.paths() and after is not None and not after.paths()
    assert progress.merge_generation > served


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
    assert restored is not None
    assert restored.to_dict() != newest.to_dict()
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
    tree, progress = env.run(until=manager.merged("s1"))
    assert tree is not None and env.now == 0.25
    have = progress.merge_generation
    # Same validator: no tree, fresh progress, from the last merge's reply.
    tree, progress = env.run(until=manager.merged("s1", have=have))
    assert tree is None
    assert progress.merge_generation == have and progress.merged_at == 0.25
    assert len(manager.merge_log) == 1
    assert obs.metrics.counter("aida_polls_total", "").total() == 2
    # A stale (or foreign) validator gets the tree.
    tree, _ = env.run(until=manager.merged("s1", have=have - 1))
    assert tree is not None
    # New data: charged the same 0.25 s whether or not a validator came.
    engine.tree.get("/h").fill(0.9)
    manager.submit_snapshot("s1", engine.take_snapshot())
    tree, progress = env.run(until=manager.merged("s1", have=have))
    assert tree is not None and env.now == 0.5
    assert progress.merge_generation == have + 1


def test_joiners_are_told_not_modified_one_by_one():
    env = Environment()
    obs = Observability(env, enabled=True)
    manager = AIDAManagerService(
        env, merge_cost_per_tree=0.1, fan_in=2, coalesce_window_s=0.05,
        obs=obs,
    )
    manager.configure_tier("s1", ["e0", "e1", "e2"])
    for index, value in enumerate([0.2, 0.4, 0.6]):
        engine = _engine_with_data(f"e{index}", [value])
        manager.submit_snapshot("s1", engine.take_snapshot())
    _, progress = env.run(until=manager.merged("s1"))
    current = progress.merge_generation
    # The root combiner loses its partial: the merge the crash starts
    # re-folds it from its children's intact partials, the same tree under
    # the same generation, so joiners holding it are told "not modified".
    coalesced = obs.metrics.counter("aida_polls_coalesced_total", "")
    merges_before, coalesced_before = len(manager.merge_log), coalesced.total()
    manager.crash_combiner("s1", "s1/combiner-2.0")
    replies = []

    def poll(index, have):
        tree, progress = yield manager.merged("s1", have=have)
        replies.append((index, tree is None, env.now, progress.merge_generation))

    # Joiners a mix; the one merge serves them all, in arrival order, each
    # according to what it holds.
    haves = [current, current, None, current - 1, current, current]
    for index, have in enumerate(haves):
        env.process(poll(index, have))
    env.run()
    assert len(manager.merge_log) - merges_before == 1
    assert manager.merge_generation("s1") == current
    assert [r[0] for r in replies] == list(range(len(haves)))
    assert [r[1] for r in replies] == [have == current for have in haves]
    assert len({r[2] for r in replies}) == 1
    assert all(r[3] == current for r in replies)
    assert coalesced.total() - coalesced_before == len(haves)
    joins = obs.tracer.find("aida.merge.join")[-len(haves):]
    assert all(s.finished and s.start == joins[0].start for s in joins)
    # A poll after the merge is told "not modified" from its reply.
    after = manager.merged("s1", have=current)
    assert after.processed and after.value[0] is None
    assert len(manager.merge_log) - merges_before == 1


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
        anonymous = RemoteDataPlugin(site.container)  # no client_id label
        anonymous.bind(info.session_id, info.token)
        first, progress = yield from anonymous.poll()
        again, _ = yield from anonymous.poll()
        # Not modified: the very same (shared, read-only) tree object.
        assert again is first
        assert first.to_dict() == final.tree.to_dict()
        anonymous.bind(info.session_id, info.token)
        assert anonymous._tree is None and anonymous._have is None
        rebound, again_progress = yield from anonymous.poll()
        # Re-fetched unconditionally, and served the generation's one tree.
        assert again_progress.merge_generation == progress.merge_generation
        assert rebound is first
        seen["generation"] = progress.merge_generation
        yield from alice.close()

    env.run(until=env.process(scenario()))
    assert seen["generation"] >= 1


@functools.lru_cache(maxsize=None)
def _viewer_run(observed: bool = False) -> float:
    """The poll path's event budget, sim clock only: 64 viewers x 20
    rounds on one 16-engine session under the serving profile the e2e
    benchmark uses.  Returns the kernel steps of the viewing phase per
    poll."""
    n_viewers, n_rounds, interval = 64, 20, 0.25
    site = build_site(
        n_workers=16,
        merge_fan_in=8,
        service_concurrency=4,
        service_dispatch_overhead_s=0.002,
        poll_coalesce_window_s=0.05,
        enable_observability=observed,
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
    return counted["steps"] / counted["polls"]


def _viewer_events_per_poll() -> float:
    return _viewer_run()


def test_a_viewer_poll_costs_at_most_four_point_two_kernel_events():
    # 4.17 on this shape.  History: 11.32 with a Store-backed request loop
    # and a process per coalesced joiner; 7.13 with a process per call;
    # 5.13 once the call ran in the viewer's own process (no per-call
    # Initialize and completion); 4.32 once a queued call's ticket fired
    # after its dispatch overhead (no second timeout) and the merge leader
    # became a timer whose callback folds; 4.17 once a poll with nothing
    # to fold was answered from the last merge's reply, leading no
    # zero-fold merge timer.
    assert _viewer_events_per_poll() <= 4.2


def test_the_poll_path_costs_the_same_kernel_steps_with_observability_on():
    # One leader for both settings: spans and metrics add no event.
    assert _viewer_run(observed=True) == _viewer_events_per_poll()


def _republish(aida, session_id):
    """Land a fresh keyframe of the session's first engine (same content,
    next sequence): the next poll has a dirty merge to run."""
    _engine_id, entry = min(aida.tier(session_id).entries().items())
    snapshot = dataclasses.replace(
        entry.snapshot,
        sequence=entry.snapshot.sequence + 1,
        base_sequence=0,
        tree=entry.tree,
    )
    assert aida.submit_snapshot(session_id, snapshot) == "accepted"


def _poll_only_phase(monkeypatch, observed=False):
    """8 viewers poll a finished 4-engine session 5 times each under a
    serving profile; before each of its polls viewer 0 lands a fresh
    keyframe.  Returns (site, merges run in the phase, processes started
    in the phase)."""
    site = build_site(
        n_workers=4,
        service_concurrency=2,
        service_dispatch_overhead_s=0.002,
        poll_coalesce_window_s=0.05,
        enable_observability=observed,
    )
    env = site.env
    alice = IPAClient(site, site.enroll_user("/CN=alice"))
    started = []
    original_process = Environment.process

    def process(self, generator):
        started.append(generator.__name__)
        return original_process(self, generator)

    def viewer(plugin, go, publisher):
        yield go
        for _ in range(5):
            if publisher:
                _republish(site.aida, plugin.session_id)
            yield from plugin.poll()
            yield env.timeout(0.01)

    def scenario():
        info = yield from alice.obtain_proxy_and_connect(n_engines=4)
        yield from alice.select_dataset("ds-a")
        yield from alice.upload_code(counting.SOURCE)
        yield from alice.run()
        yield from alice.wait_for_completion(poll_interval=2.0)
        go = env.event()
        viewers = []
        for index in range(8):
            plugin = RemoteDataPlugin(site.container, client_id=f"v{index}")
            plugin.bind(info.session_id, info.token)
            viewers.append(env.process(viewer(plugin, go, index == 0)))
        merges = len(site.aida.merge_log)
        monkeypatch.setattr(Environment, "process", process)
        go.succeed()
        yield env.all_of(viewers)
        monkeypatch.undo()
        return len(site.aida.merge_log) - merges

    merges = env.run(until=env.process(scenario()))
    return site, merges, started


def test_a_poll_only_phase_starts_no_process_for_its_merges(monkeypatch):
    _site, merges, started = _poll_only_phase(monkeypatch)
    # Each fresh keyframe is folded by exactly one merge; every other poll
    # joins it or is answered from the reply it left.
    assert merges == 5
    assert started == []


def test_every_merge_span_is_finished_with_its_attributes(monkeypatch):
    site, merges, _started = _poll_only_phase(monkeypatch, observed=True)
    spans = site.obs.tracer.find("aida.merge")
    assert len(spans) >= merges == 5
    for span in spans:
        assert span.finished and span.status == "ok"
        assert {"n_trees", "n_dirty", "coalesced_waiters"} <= set(span.attrs)
    phase = spans[-merges:]
    assert all(span.attrs["n_dirty"] == 1 for span in phase)
    # Each keyframe starts its merge as it lands, charged the coalesce
    # window; it is done before the poll that follows arrives, so every
    # poll reads its reply and none waits on it.
    assert all(span.duration == pytest.approx(0.05) for span in phase)
    assert not any(span.attrs["coalesced_waiters"] for span in phase)


def test_a_fold_that_raises_fails_the_leader_and_every_joiner_wave(
    monkeypatch,
):
    env = Environment()
    manager = AIDAManagerService(
        env, merge_cost_per_tree=0.0, coalesce_window_s=0.05
    )
    manager.submit_snapshot("s1", _engine_with_data("e0", [0.3]).take_snapshot())

    def broken_refold(self):
        raise RuntimeError("fold broke")

    monkeypatch.setattr(MergeTree, "refold", broken_refold)
    caught = []

    def poller(index, have):
        yield env.timeout(0.01 * index)
        try:
            yield manager.merged("s1", have=have)
        except RuntimeError as exc:
            caught.append((index, str(exc), env.now))

    # The leader, then three waves of joiners (have None, 1, None).
    for index, have in enumerate([None, None, 1, 1, None]):
        env.process(poller(index, have))
    env.run()  # nothing undefused escapes a step
    assert caught == [(index, "fold broke", 0.05) for index in range(5)]
    assert "inflight" not in manager.session_cache_keys("s1")


def test_drop_session_clears_coalescing_state():
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    engine = _engine_with_data("e0", [0.3])
    manager.submit_snapshot("s1", engine.take_snapshot())
    env.run(until=manager.merged("s1"))
    assert manager.session_cache_keys("s1") != []
    manager.drop_session("s1")
    assert manager.session_cache_keys("s1") == []


# -- a poll with nothing to fold runs no merge ---------------------------


def test_a_clean_poll_replies_after_the_round_trip_and_dispatch_only():
    dispatch = 0.002
    site = build_site(
        n_workers=2,
        service_concurrency=2,
        service_dispatch_overhead_s=dispatch,
        poll_coalesce_window_s=0.05,
        enable_observability=True,
    )
    env = site.env
    alice = IPAClient(site, site.enroll_user("/CN=alice"))
    seen = {}

    def scenario():
        info = yield from alice.obtain_proxy_and_connect(n_engines=2)
        yield from alice.select_dataset("ds-a")
        yield from alice.upload_code(counting.SOURCE)
        yield from alice.run()
        yield from alice.wait_for_completion(poll_interval=2.0)
        viewer = RemoteDataPlugin(site.container)
        viewer.bind(info.session_id, info.token)
        held, progress = yield from viewer.poll()
        merges = len(site.aida.merge_log)
        spans = len(site.obs.tracer.find("aida.merge"))
        start = env.now
        tree, again = yield from viewer.poll()
        seen["elapsed"] = env.now - start
        # The same generation's tree and the very reply of the last merge.
        assert tree is held and again is progress
        assert len(site.aida.merge_log) == merges
        assert len(site.obs.tracer.find("aida.merge")) == spans
        yield from alice.close()

    env.run(until=env.process(scenario()))
    rmi = site.calibration.rmi_latency_s
    assert seen["elapsed"] == pytest.approx(rmi + dispatch + rmi)


def _warm_manager(planned=True):
    """Three finished engines of session ``s1`` on a fan-in-2 manager (a
    depth-2 tree once planned), polled until the last poll ran no merge.
    Returns (manager, the progress that poll carried)."""
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.1, fan_in=2)
    if planned:
        manager.configure_tier("s1", ["e0", "e1", "e2"])
    for index, value in enumerate([0.2, 0.4, 0.6]):
        engine = _engine_with_data(f"e{index}", [value])
        manager.submit_snapshot("s1", engine.take_snapshot(final=True))
    env.run(until=manager.merged("s1"))
    merges = len(manager.merge_log)
    _, progress = env.run(until=manager.merged("s1"))
    assert len(manager.merge_log) == merges and progress.complete
    return manager, progress


def _new_reporter(manager):
    engine = _engine_with_data("e3", [0.8])
    assert manager.submit_snapshot("s1", engine.take_snapshot()) == "accepted"


def _restart(manager):
    manager.crash()
    manager.restart()


#: mutator -> (apply it, what the next poll's (tree, progress, before,
#: elapsed) must show).  Every one changes the session's merge state.
MUTATORS = {
    "submit_snapshot": (
        _new_reporter,
        lambda tree, p, before, dt: tree is not None
        and p.engines_reporting == 4
        and p.merge_generation > before.merge_generation,
    ),
    "configure_tier": (
        lambda m: m.configure_tier("s1", ["e0", "e1", "e2"]),
        lambda tree, p, before, dt: tree is not None
        and p.merge_generation > before.merge_generation
        and dt == pytest.approx(0.1 * 2 * 2),
    ),
    "crash_combiner_leaf": (
        lambda m: m.crash_combiner("s1", "s1/combiner-1.0"),
        lambda tree, p, before, dt: p.engines_reporting == 1
        and p.merge_generation > before.merge_generation,
    ),
    "crash_combiner_internal": (
        lambda m: m.crash_combiner("s1", "s1/combiner-2.0"),
        # The root re-folds its two children: charged, same tree.
        lambda tree, p, before, dt: tree is None
        and p.merge_generation == before.merge_generation
        and dt == pytest.approx(0.1 * 2),
    ),
    "begin_run": (
        lambda m: m.begin_run("s1", 1),
        lambda tree, p, before, dt: not tree.paths()
        and p.run_id == 1
        and p.engines_reporting == 0
        and p.merge_generation > before.merge_generation,
    ),
    "discard_engine": (
        lambda m: m.discard_engine("s1", "e2"),
        lambda tree, p, before, dt: p.engines_reporting == 2
        and p.merge_generation > before.merge_generation,
    ),
    "set_expected_engines": (
        lambda m: m.set_expected_engines("s1", 4),
        lambda tree, p, before, dt: p.expected_engines == 4
        and not p.complete,
    ),
    "set_recovering": (
        lambda m: m.set_recovering("s1", True),
        lambda tree, p, before, dt: p.recovering and not p.complete,
    ),
    "restore_state": (
        lambda m: m.restore_state("s1", m.checkpoint_state("s1")),
        lambda tree, p, before, dt: tree is not None
        and p.engines_reporting == 3
        and p.merge_generation > before.merge_generation,
    ),
    "drop_session": (
        lambda m: m.drop_session("s1"),
        lambda tree, p, before, dt: not tree.paths()
        and p.engines_reporting == 0,
    ),
    "crash": (
        _restart,
        lambda tree, p, before, dt: not tree.paths()
        and p.engines_reporting == 0
        and p.merge_generation > before.merge_generation,
    ),
}


@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_every_mutator_of_merge_state_makes_the_next_poll_merge(mutator):
    mutate, expected = MUTATORS[mutator]
    manager, before = _warm_manager(planned=mutator != "configure_tier")
    env = manager.env
    mutate(manager)
    merges, start = len(manager.merge_log), env.now
    tree, progress = env.run(
        until=manager.merged("s1", have=before.merge_generation)
    )
    assert len(manager.merge_log) == merges + 1
    assert progress is not before and progress.merged_at == env.now
    assert expected(tree, progress, before, env.now - start)


def test_re_asserting_an_unchanged_flag_keeps_the_last_reply():
    # The recovery monitor sets "not recovering" on every sweep: that
    # changes nothing, so the next poll still runs no merge.
    manager, before = _warm_manager()
    manager.set_recovering("s1", False)
    manager.set_expected_engines("s1", 4)
    manager.set_expected_engines("s1", 4)
    env = manager.env
    _, progress = env.run(until=manager.merged("s1"))
    merges = len(manager.merge_log)
    manager.set_recovering("s1", False)
    manager.set_expected_engines("s1", 4)
    _, again = env.run(until=manager.merged("s1"))
    assert len(manager.merge_log) == merges and again is progress


def test_a_clean_poll_reads_nothing_of_the_tree(monkeypatch):
    manager, before = _warm_manager()

    def walked(*args, **kwargs):
        raise AssertionError("a clean poll walked the merge state")

    monkeypatch.setattr(MergeTree, "poll_latency", walked)
    monkeypatch.setattr(MergeTree, "entries", walked)
    monkeypatch.setattr(MergeProgress, "__init__", walked)
    reply = manager.merged("s1", have=before.merge_generation)
    assert reply.processed
    assert reply.value == (None, before)


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
        coalesce_window_s=0.05,
    )
    engines = {
        f"e{i}": _engine_with_data(f"e{i}", [rng.random()]) for i in range(3)
    }
    #: engine -> deep copy of its tree at the latest accepted snapshot.
    latest = {}
    n_clients = 5
    previous = None  # the tree the last round was served

    def poll(results):
        tree, progress = yield manager.merged("s1")
        results.append((tree, progress.merge_generation))

    for _ in range(8):
        # A random batch of new data lands...
        landed = False
        for engine_id in sorted(engines):
            if rng.random() < 0.7:
                landed = True
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
            env.process(poll(results)) for _ in range(n_clients)
        ]
        env.run(until=env.all_of(polls))
        # One shared merge served everyone; a round with nothing new ran
        # none and re-served the last round's tree...
        fresh = landed or previous is None
        assert len(manager.merge_log) - merges_before == (1 if fresh else 0)
        # ...and every reply is the one tree, byte-for-byte the reference
        # flat merge.
        ref = reference_merge(latest)
        tree, generation = results[0]
        if not fresh:
            assert tree is previous
        previous = tree
        assert tree.to_dict() == ref
        assert len(results) == n_clients
        for reply_tree, reply_generation in results:
            assert reply_tree is tree
            assert reply_generation == generation

    # The coalesced-poll counter saw every join (leader polls excluded).
    coalesced = obs.metrics.counter("aida_polls_coalesced_total", "")
    assert coalesced.total() > 0
