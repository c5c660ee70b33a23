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

from repro.aida.codec import decode_array, encode_array
from repro.aida.hist1d import Histogram1D
from repro.aida.hist2d import Histogram2D
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


def filled_hist2d():
    hist = Histogram2D(
        "h2", x_bins=4, x_lower=0, x_upper=1, y_bins=3, y_lower=0, y_upper=1
    )
    hist.fill_array([0.1, 0.6, 0.9], [0.2, 0.5, 1.4], [1.0, 2.0, 0.5])
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
    "hist2d": (filled_hist2d, [
        lambda o: o.fill(0.5, 0.5),
        lambda o: o.fill_array([0.25, 0.75], [0.5, 0.5]),
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


@pytest.mark.parametrize("fan_in", [None, 2])
def test_a_site_session_serializes_nothing_outside_its_checkpoints(fan_in):
    """Publish → merge → poll until final, counting every call of the
    codec and of ``ObjectTree.from_dict``.  A profile hook counts calls by
    code object, so it also sees ``to_wire``'s default-argument binding of
    ``encode_array``; calls under a durable checkpoint write are allowed."""
    site = GridSite(SiteConfig(n_workers=4, merge_fan_in=fan_in))
    site.register_dataset(
        "ds", "/test/ds", size_mb=20.0, n_events=2_000,
        content={"kind": "ilc", "seed": 42},
    )
    client = IPAClient(site, site.enroll_user("/O=ILC/CN=guard"))
    watched = {
        encode_array.__code__: 0,
        decode_array.__code__: 0,
        ObjectTree.from_dict.__func__.__code__: 0,
    }
    durable = SessionService.write_checkpoint.__code__
    depth = [0]

    def hook(frame, event, _arg):
        code = frame.f_code
        if code is durable:
            depth[0] += 1 if event == "call" else -1 if event == "return" else 0
        elif event == "call" and code in watched and not depth[0]:
            watched[code] += 1

    out = {}

    def scenario():
        yield from client.obtain_proxy_and_connect()
        yield from client.select_dataset("ds")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        final = yield from client.wait_for_completion(poll_interval=2.0)
        out["tree"], out["progress"] = final.tree, final.progress
        yield from client.close()

    sys.setprofile(hook)
    try:
        site.env.run(until=site.env.process(scenario()))
        filled_hist1d().to_dict()  # the hook itself must see an encode
    finally:
        sys.setprofile(None)
    assert out["progress"].complete
    assert out["tree"].get("/higgs/dijet_mass").entries > 0
    assert list(watched.values()) == [3, 0, 0]
