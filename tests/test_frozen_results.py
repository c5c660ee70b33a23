"""Results cross the in-process planes as frozen objects.

Engines publish frozen copies, leaves keep them as they arrive, the
manager serves one frozen root per generation and the client keeps what
it is served: nothing between engine and client serializes.  These tests
pin the read-only contract of every AIDA kind and of the tree, the walk
order the tree's flat index reproduces, and — as a guard against the
round trip creeping back — that a whole site session encodes and decodes
nothing outside its durable checkpoint writes.
"""

import sys

import numpy as np
import pytest

from repro.aida.codec import decode_array, encode_array, payload_nbytes
from repro.aida.hist1d import Histogram1D
from repro.aida.profile import Profile1D
from repro.aida.tree import ObjectTree
from repro.analysis import higgs
from repro.client.client import IPAClient
from repro.core.site import GridSite, SiteConfig
from repro.services.session import SessionService


def filled_hist1d():
    hist = Histogram1D("h", bins=30, lower=0.0, upper=1.0)
    hist.fill_array(np.linspace(-0.2, 1.2, 41), np.linspace(0.5, 1.5, 41))
    return hist


def filled_profile():
    prof = Profile1D("p", bins=30, lower=0.0, upper=1.0)
    prof.fill_array([0.1, 0.5, 0.9], [1.0, -2.0, 3.5])
    return prof


KINDS = {
    "hist1d": (filled_hist1d, [
        lambda o: o.fill(0.5),
        lambda o: o.fill_array([0.25, 0.75]),
        lambda o: o.fill_array([0.25], [2.0]),
        lambda o: o.scale(2.0),
    ]),
    "profile": (filled_profile, [
        lambda o: o.fill(0.5, 1.0),
        lambda o: o.fill_array([0.25, 0.75], [1.0, 2.0]),
    ]),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_every_mutator_of_a_frozen_object_raises_and_changes_nothing(kind):
    make, fills = KINDS[kind]
    obj = make().freeze()
    before = obj.to_dict()
    edits = fills + [
        lambda o: o.reset(),
        lambda o: o.__iadd__(make()),
        lambda o: o._counts.__setitem__(0, 7),
        lambda o: o._sumw.__setitem__(0, 7.0),
    ]
    for edit in edits:
        with pytest.raises(ValueError, match="read-only"):
            edit(obj)
    assert obj.to_dict() == before
    # A copy is writable, independent, and starts its own version count.
    clone = obj.copy()
    fills[0](clone)
    assert clone.to_dict() != before and obj.to_dict() == before
    assert clone.data_version == 1
    # So is what the durable form restores.
    restored = type(obj).from_dict(obj.to_dict())
    assert restored.to_dict() == before
    fills[0](restored)


MUTATORS = [
    (kind, index)
    for kind, (_, fills) in sorted(KINDS.items())
    for index in range(len(fills) + 2)
]


@pytest.mark.parametrize("kind, index", MUTATORS)
def test_a_refused_mutation_moves_neither_the_version_nor_a_statistic(kind, index):
    make, fills = KINDS[kind]
    mutate = (fills + [lambda o: o.reset(), lambda o: o.__iadd__(make())])[index]
    obj = make().freeze()
    version = obj.data_version
    arrays = {name: getattr(obj, name).copy() for name in obj._arrays}
    moments = {name: getattr(obj, name) for name in obj._moments}
    with pytest.raises(ValueError, match="read-only"):
        mutate(obj)
    assert obj.data_version == version
    for name, before in arrays.items():
        assert np.array_equal(getattr(obj, name), before), name
    assert {name: getattr(obj, name) for name in obj._moments} == moments


def test_a_frozen_tree_refuses_edits_and_its_copies_do_not():
    tree = ObjectTree()
    tree.put("/a/h", filled_hist1d())
    tree.put("/p", filled_profile())
    published = tree.frozen_copy()
    assert published.paths() == tree.paths()
    assert all(published.get(p) is not tree.get(p) for p in tree.paths())
    for edit in (
        lambda: published.put("/b", filled_hist1d()),
        lambda: published.remove("/a/h"),
        lambda: published.mkdir("/c"),
        published.reset_all,
    ):
        with pytest.raises(ValueError, match="read-only"):
            edit()
    assert published.paths() == ["/p", "/a/h"]
    # update() shares the frozen objects themselves; copy() is writable.
    shared = ObjectTree()
    shared.update(published)
    assert shared.get("/a/h") is published.get("/a/h")
    mine = published.copy()
    mine.get("/a/h").fill(0.5)
    mine.put("/b", filled_hist1d())


def reference_walk(tree, prefix="/"):
    """Depth-first: a directory's objects (sorted), then its subdirectories."""
    names = tree.ls(prefix)
    objects = [n for n in names if not n.endswith("/")]
    subdirs = [n for n in names if n.endswith("/")]
    paths = [prefix + n for n in objects]
    for sub in subdirs:
        paths += reference_walk(tree, prefix + sub)
    return paths


def test_walk_order_is_depth_first_objects_before_subdirectories():
    tree = ObjectTree()
    for path in ("/z", "/b/y", "/b/a/x", "/a", "/b/c", "/b/a/w", "/ab/q", "/a_/q"):
        tree.put(path, filled_hist1d())
    tree.mkdir("/empty/dir")
    assert tree.paths() == reference_walk(tree)
    tree.remove("/b/a")
    tree.put("/b/a", filled_hist1d())
    assert tree.paths() == reference_walk(tree)
    assert [path for path, _ in tree.walk()] == tree.paths()
    assert len(tree) == 7


def run_site_session(site, n_events):
    """Publish → merge → poll until final, then close; the final reply."""
    site.register_dataset(
        "ds", "/test/ds", size_mb=20.0, n_events=n_events,
        content={"kind": "ilc", "seed": 42},
    )
    client = IPAClient(site, site.enroll_user("/O=ILC/CN=guard"))
    out = {}

    def scenario():
        yield from client.obtain_proxy_and_connect()
        yield from client.select_dataset("ds")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        final = yield from client.wait_for_completion(poll_interval=2.0)
        out["tree"], out["progress"] = final.tree, final.progress
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    assert out["progress"].complete
    assert out["tree"].get("/higgs/dijet_mass").entries > 0
    return out


@pytest.mark.parametrize("fan_in", [None, 2])
def test_a_site_session_serializes_nothing_outside_its_checkpoints(fan_in):
    """Publish → merge → poll until final, counting every call of the
    codec, of ``ObjectTree.from_dict`` and of the snapshot sizing.  A
    profile hook counts calls by code object, so it also sees
    ``to_wire``'s default-argument binding of ``encode_array``; calls
    under a durable checkpoint write are allowed.  With observability
    off nothing sizes a snapshot."""
    site = GridSite(SiteConfig(n_workers=4, merge_fan_in=fan_in))
    watched = {
        encode_array.__code__: 0,
        decode_array.__code__: 0,
        ObjectTree.from_dict.__func__.__code__: 0,
        payload_nbytes.__code__: 0,
    }
    durable = SessionService.write_checkpoint.__code__
    depth = [0]

    def hook(frame, event, _arg):
        code = frame.f_code
        if code is durable:
            depth[0] += 1 if event == "call" else -1 if event == "return" else 0
        elif event == "call" and code in watched and not depth[0]:
            watched[code] += 1

    sys.setprofile(hook)
    try:
        run_site_session(site, n_events=2_000)
        filled_hist1d().to_dict()  # the hook itself must see an encode
    finally:
        sys.setprofile(None)
    assert list(watched.values()) == [3, 0, 0, 0]


def test_an_observed_site_session_counts_every_published_byte():
    """Observability on: the payload counter, per snapshot kind, is the
    sum of ``payload_nbytes`` over the snapshots the engines published."""
    site = GridSite(SiteConfig(n_workers=4, enable_observability=True))
    published = []
    submit = site.aida.submit_snapshot

    def recording_submit(session_id, snapshot):
        published.append(snapshot)
        return submit(session_id, snapshot)

    site.aida.submit_snapshot = recording_submit
    run_site_session(site, n_events=8_000)  # four chunks per engine
    expected = {"full": 0, "delta": 0}
    for snapshot in published:
        kind = "full" if snapshot.base_sequence == 0 else "delta"
        expected[kind] += payload_nbytes(snapshot.tree)
    assert expected["full"] > 0 and expected["delta"] > 0
    counter = site.obs.metrics.counter("aida_snapshot_payload_bytes_total")
    assert {kind: counter.value(kind=kind) for kind in expected} == expected


#: The per-chunk, per-beat and per-snapshot telemetry of a session, by the
#: owner (class, method) that calls it.
TELEMETRY_CALLERS = {
    ("EngineHost", "_process_loop"): {"inc", "observe"},
    ("WorkerRegistryService", "heartbeat"): {"observe"},
    ("AIDAManagerService", "submit_snapshot"): {"inc"},
    ("AIDAManagerService", "merged"): {"inc"},
    ("AIDAManagerService", "_lead"): {"child"},
}
CALLER_METHODS = {method for _owner, method in TELEMETRY_CALLERS}


def telemetry_calls(site):
    """``(caller, method)`` of each telemetry call a site session makes."""
    seen = set()

    def hook(frame, event, _arg):
        caller = frame.f_back
        if event != "call" or caller is None:
            return
        if caller.f_code.co_name not in CALLER_METHODS:
            return
        owner = (type(caller.f_locals.get("self")).__name__, caller.f_code.co_name)
        if frame.f_code.co_name in TELEMETRY_CALLERS.get(owner, ()):
            seen.add((owner, frame.f_code.co_name))

    sys.setprofile(hook)
    try:
        run_site_session(site, n_events=8_000)  # four chunks per engine
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("observed", [False, True])
def test_an_unobserved_session_calls_no_telemetry_per_chunk_beat_or_snapshot(
    observed,
):
    site = GridSite(SiteConfig(n_workers=4, enable_observability=observed))
    expected = {
        (caller, method)
        for caller, methods in TELEMETRY_CALLERS.items()
        for method in methods
    }
    assert telemetry_calls(site) == (expected if observed else set())
