"""Durable session checkpointing and service-crash recovery.

Covers the durable layer bottom-up: the crash-surviving store, the
write-ahead journal (torn tails included), journal replay, keyframe/delta
checkpoints, AIDA merge-state capture/restore, and the full
crash → restart → reconnect workflow, whose recovered results must be
bit-identical to an uninterrupted run.
"""

import numpy as np
import pytest

from repro.analysis import higgs
from repro.client.client import IPAClient
from repro.client.plugins import RemoteDataPlugin
from repro.core.site import GridSite, SiteConfig
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.faults import ServiceUnavailable
from repro.resilience.journal import (
    DurableStore,
    SessionJournal,
    decode_record,
    replay_journal,
)
from repro.services.envelope import Fault
from repro.services.session import SessionError
from repro.engine.engine import Snapshot


# ---------------------------------------------------------------------------
# DurableStore
# ---------------------------------------------------------------------------

def test_durable_store_crash_drops_unsynced_tail():
    store = DurableStore()
    store.append("journal/s1", "a", sync=True)
    store.append("journal/s1", "b", sync=False)
    store.append("journal/s1", "c", sync=False)
    store.crash()
    assert store.read("journal/s1") == ["a"]
    # A sync makes the tail durable.
    store.append("journal/s1", "d", sync=False)
    store.sync("journal/s1")
    store.crash()
    assert store.read("journal/s1") == ["a", "d"]


def test_durable_store_names_and_delete():
    store = DurableStore()
    store.append("journal/s2", "x")
    store.append("checkpoint/s2", "y")
    assert store.names("journal/") == ["journal/s2"]
    store.delete("journal/s2")
    assert store.names("journal/") == []
    assert store.read("journal/s2") == []


# ---------------------------------------------------------------------------
# SessionJournal
# ---------------------------------------------------------------------------

def test_journal_round_trip_and_seq_resume():
    store = DurableStore()
    journal = SessionJournal(store, "s1")
    journal.append("create", session_id="s1", owner="/CN=a")
    journal.append("control", verb="run")
    # A fresh reader (post-restart) sees both records and resumes seq.
    reader = SessionJournal(store, "s1")
    records = reader.records()
    assert [r["type"] for r in records] == ["create", "control"]
    assert records[0]["data"]["owner"] == "/CN=a"
    third = reader.append("closing")
    assert third["seq"] == 3


def test_journal_torn_tail_tolerated():
    store = DurableStore()
    journal = SessionJournal(store, "s1")
    journal.append("create", session_id="s1")
    journal.append("control", verb="run")
    store.tear(journal.name)  # crash mid-append halves the last line
    reader = SessionJournal(store, "s1")
    records = reader.records()
    assert [r["type"] for r in records] == ["create"]
    assert reader.torn_records == 1


def test_record_checksum_rejects_corruption():
    store = DurableStore()
    journal = SessionJournal(store, "s1")
    journal.append("create", session_id="s1")
    line = store.read(journal.name)[0]
    assert decode_record(line) is not None
    assert decode_record(line[:-3] + "xyz") is None
    assert decode_record("garbage") is None


def test_replay_journal_folds_lifecycle():
    store = DurableStore()
    journal = SessionJournal(store, "s1")
    journal.append(
        "create",
        session_id="s1",
        owner="/CN=a",
        token="tok",
        n_engines=2,
        engines={"s1-engine-0": "w0", "s1-engine-1": "w1"},
    )
    journal.append(
        "stage",
        dataset_id="ds",
        strategy="by-events",
        size_mb=10.0,
        n_events=100,
        content={"kind": "ilc", "seed": 1},
        parts=[
            {"part_index": 0, "start_event": 0, "stop_event": 50,
             "size_mb": 5.0, "worker": "w0"},
            {"part_index": 1, "start_event": 50, "stop_event": 100,
             "size_mb": 5.0, "worker": "w1"},
        ],
        assignments={"s1-engine-0": [0], "s1-engine-1": [1]},
        staged={},
    )
    journal.append("control", verb="run")
    journal.append("quarantine", engine_id="s1-engine-1")
    model = replay_journal(journal.records())
    assert model.running
    assert model.banned == {"s1-engine-1"}
    assert sorted(model.engines) == ["s1-engine-0"]
    assert model.orphaned == [1]  # the dead engine's part
    journal.append("dispatch", engine_id="s1-engine-0", part_index=1)
    model = replay_journal(journal.records())
    assert model.orphaned == []
    assert model.assignments["s1-engine-0"] == [0, 1]
    assert not model.closed
    journal.append("closing")
    journal.append("closed")
    model = replay_journal(journal.records())
    assert model.closing and model.closed


def test_replay_journal_without_create_returns_none():
    assert replay_journal([]) is None
    assert replay_journal([{"type": "control", "data": {"verb": "run"}}]) is None


# ---------------------------------------------------------------------------
# CheckpointStore
# ---------------------------------------------------------------------------

def _merge_state(run_id=0, **engines):
    return {
        "run_id": run_id,
        "expected": len(engines),
        "banned": [],
        "engines": dict(engines),
    }


def _engine(sequence, value):
    return {
        "sequence": sequence,
        "events_processed": value,
        "total_events": 100,
        "analysis_version": 1,
        "run_id": 0,
        "final": False,
        "tree": {"/h": value},
    }


def test_checkpoint_keyframe_delta_round_trip():
    store = DurableStore()    # every 2nd write is a keyframe
    ckpt = CheckpointStore(store, "s1", keyframe_every=2)
    k1 = ckpt.write({"rewinds": 0}, _merge_state(e0=_engine(1, 10)))
    assert k1 == "keyframe"
    # Only e1 advanced: the next write ships just that engine.
    k2 = ckpt.write(
        {"rewinds": 0},
        _merge_state(e0=_engine(1, 10), e1=_engine(1, 20)),
    )
    assert k2 == "delta"
    session_state, merge_state = CheckpointStore(store, "s1").load()
    assert session_state == {"rewinds": 0}
    assert sorted(merge_state["engines"]) == ["e0", "e1"]
    assert merge_state["engines"]["e1"]["tree"] == {"/h": 20}


def test_checkpoint_torn_record_falls_back_to_last_committed():
    store = DurableStore()
    ckpt = CheckpointStore(store, "s1", keyframe_every=2)
    ckpt.write({"rewinds": 0}, _merge_state(e0=_engine(1, 10)))
    ckpt.write({"rewinds": 0}, _merge_state(e0=_engine(2, 30)), torn=True)
    session_state, merge_state = CheckpointStore(store, "s1").load()
    # The torn delta is unreadable; the keyframe state survives.
    assert merge_state["engines"]["e0"]["events_processed"] == 10


def test_checkpoint_run_id_change_forces_keyframe():
    store = DurableStore()
    ckpt = CheckpointStore(store, "s1", keyframe_every=100)
    assert ckpt.write({"rewinds": 0}, _merge_state(e0=_engine(1, 10))) == "keyframe"
    assert (
        ckpt.write(
            {"rewinds": 0},
            _merge_state(e0=_engine(1, 10), e1=_engine(1, 5)),
        )
        == "delta"
    )
    state = _merge_state(e0=_engine(1, 1))
    state["run_id"] = 1  # rewind: deltas against the old run are meaningless
    assert ckpt.write({"rewinds": 1}, state) == "keyframe"


def test_checkpoint_delta_records_removed_engines():
    store = DurableStore()
    ckpt = CheckpointStore(store, "s1", keyframe_every=10)
    ckpt.write(
        {"rewinds": 0}, _merge_state(e0=_engine(1, 10), e1=_engine(1, 20))
    )
    ckpt.write({"rewinds": 0}, _merge_state(e0=_engine(2, 15)))
    _, merge_state = CheckpointStore(store, "s1").load()
    assert sorted(merge_state["engines"]) == ["e0"]


# ---------------------------------------------------------------------------
# End-to-end service crash -> restart -> reconnect
# ---------------------------------------------------------------------------

N_WORKERS = 4
N_EVENTS = 4000
SIZE_MB = 40.0


def _build():
    site = GridSite(SiteConfig(n_workers=N_WORKERS, checkpoint_every_s=10.0))
    site.register_dataset(
        "ds", "/t/ds", size_mb=SIZE_MB, n_events=N_EVENTS,
        content={"kind": "ilc", "seed": 7},
    )
    return site, IPAClient(site, site.enroll_user("/CN=alice"))


def _run(crash=False, torn=False, kill_worker_during_downtime=False,
         downtime=30.0):
    site, client = _build()
    out = {}

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=N_WORKERS)
        yield from client.select_dataset("ds")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        if crash:
            # Mid-run: at least one snapshot per engine has been merged.
            while site.aida.snapshot_count(info.session_id) < N_WORKERS:
                yield site.env.timeout(1.0)
            site.injector.crash_services(torn_checkpoint=torn)
            out["crashed_at"] = site.env.now
            # Polling during the outage fails (token revoked / service
            # down) instead of hanging.
            with pytest.raises((ServiceUnavailable, Fault)):
                yield from client.poll()
            if kill_worker_during_downtime:
                victim = site.registry.engines(info.session_id)[0]
                site.injector.crash_worker(victim.worker)
                out["victim"] = victim.engine_id
            yield site.env.timeout(downtime)
            yield site.injector.restart_services()
            yield from client.reconnect()
        final = yield from client.wait_for_completion(
            poll_interval=2.0, timeout=20_000.0, reconnect=True
        )
        out["progress"] = final.progress
        out["hist"] = final.tree.get("/higgs/dijet_mass")
        out["status"] = yield from client.status()
        out["session_id"] = info.session_id
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    out["site"] = site
    out["client"] = client
    return out


def test_service_crash_recovery_bit_identical():
    baseline = _run()
    recovered = _run(crash=True)
    assert recovered["progress"].complete
    assert recovered["progress"].events_processed == N_EVENTS
    base_hist, rec_hist = baseline["hist"], recovered["hist"]
    assert rec_hist.entries == base_hist.entries
    assert np.array_equal(rec_hist.heights(), base_hist.heights())
    assert rec_hist.to_dict() == base_hist.to_dict()
    assert not recovered["status"]["failures"]


def test_service_crash_with_torn_checkpoint_recovers():
    baseline = _run()
    recovered = _run(crash=True, torn=True)
    assert recovered["progress"].complete
    assert recovered["hist"].to_dict() == baseline["hist"].to_dict()


def test_worker_death_during_downtime_is_recovered():
    baseline = _run()
    recovered = _run(crash=True, kill_worker_during_downtime=True)
    assert recovered["progress"].complete
    assert recovered["hist"].to_dict() == baseline["hist"].to_dict()
    status = recovered["status"]
    # The engine that died while the service was down was quarantined on
    # recovery and its partition re-dispatched.
    assert [r["engine_id"] for r in status["recoveries"]] == [
        recovered["victim"]
    ]
    assert len(status["redispatches"]) >= 1
    assert status["orphaned_parts"] == 0


def test_polls_across_a_service_recovery_never_reuse_a_generation():
    # A viewer that keeps its plug-in bound through the outage (recovery
    # re-issues the session's token) holds a tree and its validator from
    # before the crash.  Whatever the checkpoint remembered, the first
    # poll after recover() must decode a full tree under a generation
    # greater than any served before -- never "not modified".
    site, client = _build()
    viewer = RemoteDataPlugin(site.container, client_id="viewer")
    out = {"before": []}

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=N_WORKERS)
        yield from client.select_dataset("ds")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        viewer.bind(info.session_id, info.token)
        while site.aida.snapshot_count(info.session_id) < N_WORKERS:
            yield site.env.timeout(1.0)
        # Poll past the first periodic checkpoint (10 s), so generations
        # are served that no checkpoint recorded.
        for _ in range(8):
            held, progress = yield from viewer.poll()
            out["before"].append(progress.merge_generation)
            yield site.env.timeout(2.0)
        site.injector.crash_services()
        yield site.env.timeout(5.0)
        yield site.injector.restart_services()
        tree, progress = yield from viewer.poll()
        out["after"] = progress.merge_generation
        out["decoded_again"] = tree is not held
        unconditional, _ = yield site.aida.merged(info.session_id)
        out["equal"] = tree.to_dict() == unconditional
        yield from client.reconnect()
        yield from client.wait_for_completion(
            poll_interval=2.0, timeout=20_000.0, reconnect=True
        )
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    assert len(set(out["before"])) > 1
    assert out["after"] > max(out["before"])
    assert out["decoded_again"] and out["equal"]


def test_recovered_session_record_has_the_keys_of_a_fresh_one():
    site, client = _build()
    keys = {}

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=N_WORKERS)
        yield from client.select_dataset("ds")
        keys["fresh"] = set(site.session_service._sessions[info.session_id])
        site.injector.crash_services()
        yield site.injector.restart_services()
        keys["recovered"] = set(
            site.session_service._sessions[info.session_id]
        )
        yield from client.reconnect()
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    assert keys["recovered"] == keys["fresh"]


def test_reconnect_identity_and_lifecycle_errors():
    site, client = _build()
    intruder = IPAClient(site, site.enroll_user("/CN=mallory"))
    out = {}

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=2)
        intruder.obtain_proxy()
        with pytest.raises(SessionError, match="identity"):
            yield from intruder.reconnect(info.session_id)
        with pytest.raises(SessionError, match="no active session"):
            yield from client.reconnect("session-does-not-exist")
        yield from client.close()
        out["done"] = True

    site.env.run(until=site.env.process(scenario()))
    assert out["done"]


def test_reconnect_retries_while_service_down():
    site, client = _build()
    out = {}

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=2)
        site.injector.crash_services()
        # Restart the services while the client is mid-backoff: the
        # reconnect loop should land on a later attempt.
        def restart_later():
            yield site.env.timeout(3.0)
            yield site.injector.restart_services()
        site.env.process(restart_later())
        refreshed = yield from client.reconnect(info.session_id)
        assert refreshed.session_id == info.session_id
        assert refreshed.token == info.token
        out["reconnected_at"] = site.env.now
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    assert out["reconnected_at"] >= 3.0


# ---------------------------------------------------------------------------
# close() idempotency across the recovery boundary (satellite)
# ---------------------------------------------------------------------------

def test_close_idempotent_across_recovery_boundary():
    site, client = _build()
    out = {}
    unpin_calls = []
    original_unpin = site.replicas.unpin_session
    site.replicas.unpin_session = lambda sid: (
        unpin_calls.append(sid), original_unpin(sid))[1]

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=2)
        yield from client.select_dataset("ds")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        yield from client.wait_for_completion(poll_interval=2.0,
                                              timeout=20_000.0)
        yield from client.close()
        assert unpin_calls == [info.session_id]
        # Crash after the close completed; recovery must see only the
        # journal tombstone and must NOT resurrect the session.
        site.injector.crash_services()
        yield site.env.timeout(5.0)
        yield site.injector.restart_services()
        assert site.session_service.closed_before_crash(info.session_id)
        assert info.session_id not in site.session_service._sessions
        # Closing again (e.g. a client retrying a close whose response
        # was lost in the crash) is the idempotent no-op: no second
        # unpin, no error.
        result = yield site.container.call(
            "control", "close_session", {"session_id": info.session_id}
        )
        assert result is True
        assert unpin_calls == [info.session_id]
        # A zombie engine submitting into the closed session is dropped.
        zombie = Snapshot(
            engine_id="ghost", sequence=1, events_processed=1,
            total_events=1, analysis_version=1, run_id=0, tree={},
        )
        assert site.aida.submit_snapshot(info.session_id, zombie) == "dropped"
        out["done"] = True

    site.env.run(until=site.env.process(scenario()))
    assert out["done"]


# ---------------------------------------------------------------------------
# AIDA cache hygiene (satellite): no leaked per-session state
# ---------------------------------------------------------------------------

def test_drop_session_clears_every_aida_cache():
    out = _run()
    site, sid = out["site"], out["session_id"]
    assert site.aida.session_cache_keys(sid) == []
    assert site.aida.snapshot_count(sid) == 0


def test_drop_session_without_any_snapshot_leaves_no_state():
    site, client = _build()

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=2)
        # No dataset, no snapshot ever submitted; close immediately.
        yield from client.close()
        assert site.aida.session_cache_keys(info.session_id) == []

    site.env.run(until=site.env.process(scenario()))


def test_discard_engine_after_drop_is_noop():
    out = _run()
    site, sid = out["site"], out["session_id"]
    site.aida.discard_engine(sid, "ghost-engine")
    assert site.aida.session_cache_keys(sid) == []


def test_recovered_session_leaves_no_cache_after_close():
    out = _run(crash=True)
    site, sid = out["site"], out["session_id"]
    assert site.aida.session_cache_keys(sid) == []
