"""Unit tests for ObjectTree."""

import pytest

from repro.aida.hist1d import Histogram1D
from repro.aida.profile import Profile1D
from repro.aida.tree import ObjectTree, TreeError, join_path, split_path


# ---------------------------------------------------------------------------
# Path helpers
# ---------------------------------------------------------------------------

def test_split_path():
    assert split_path("/a/b/c") == ("a", "b", "c")
    assert split_path("/a//b/") == ("a", "b")
    with pytest.raises(TreeError):
        split_path("relative/path")
    with pytest.raises(TreeError):
        split_path("")
    with pytest.raises(TreeError):
        split_path("/a/../b")


def test_join_path_inverse():
    assert join_path(("a", "b")) == "/a/b"
    assert split_path(join_path(("x", "y", "z"))) == ("x", "y", "z")


# ---------------------------------------------------------------------------
# ObjectTree
# ---------------------------------------------------------------------------

def hist(name, entries=0):
    h = Histogram1D(name, bins=10, lower=0, upper=10)
    for _ in range(entries):
        h.fill(5.0)
    return h


def test_tree_put_get():
    tree = ObjectTree()
    h = hist("mass")
    tree.put("/higgs/mass", h)
    assert tree.get("/higgs/mass") is h
    assert tree.exists("/higgs/mass")
    assert "/higgs/mass" in tree


def test_tree_get_missing_raises():
    tree = ObjectTree()
    with pytest.raises(TreeError):
        tree.get("/nope")


def test_tree_ls():
    tree = ObjectTree()
    tree.put("/a/x", hist("x"))
    tree.put("/a/y", hist("y"))
    tree.put("/b", hist("b"))
    assert tree.ls("/") == ["a/", "b"]
    assert tree.ls("/a") == ["x", "y"]
    with pytest.raises(TreeError):
        tree.ls("/missing")


def test_tree_mkdir_and_is_dir():
    tree = ObjectTree()
    tree.mkdir("/d1/d2")
    assert tree.is_dir("/d1")
    assert tree.is_dir("/d1/d2")
    assert not tree.is_dir("/d3")
    assert tree.is_dir("/")
    tree.mkdir("/d1/d2")  # idempotent


def test_tree_object_dir_conflicts():
    tree = ObjectTree()
    tree.put("/a", hist("a"))
    with pytest.raises(TreeError):
        tree.mkdir("/a/b")
    with pytest.raises(TreeError):
        tree.put("/a/b", hist("b"))
    tree.mkdir("/d")
    with pytest.raises(TreeError):
        tree.put("/d", hist("d"))


def test_tree_remove():
    tree = ObjectTree()
    tree.put("/a/x", hist("x"))
    tree.remove("/a/x")
    assert not tree.exists("/a/x")
    tree.remove("/a")  # remove directory
    assert not tree.is_dir("/a")
    with pytest.raises(TreeError):
        tree.remove("/a")


def test_tree_walk_sorted():
    tree = ObjectTree()
    tree.put("/z", hist("z"))
    tree.put("/a/b", hist("b"))
    tree.put("/a/a", hist("a"))
    assert [p for p, _ in tree.walk()] == ["/z", "/a/a", "/a/b"]
    assert len(tree) == 3
    assert tree.paths() == ["/z", "/a/a", "/a/b"]


def test_tree_find_by_name():
    tree = ObjectTree()
    tree.put("/run1/mass", hist("mass"))
    tree.put("/run2/mass", hist("mass"))
    tree.put("/run2/pt", hist("pt"))
    assert tree.find("mass") == ["/run1/mass", "/run2/mass"]


def test_tree_merge_from_combines_shared_objects():
    a = ObjectTree()
    b = ObjectTree()
    a.put("/h", hist("h", entries=2))
    b.put("/h", hist("h", entries=3))
    b.put("/only_b", hist("ob", entries=1))
    a.merge_from(b)
    assert a.get("/h").entries == 5
    assert a.get("/only_b").entries == 1
    # b untouched
    assert b.get("/h").entries == 3


def test_tree_merge_from_copies_not_aliases():
    a = ObjectTree()
    b = ObjectTree()
    b.put("/h", hist("h", entries=1))
    a.merge_from(b)
    a.get("/h").fill(5.0)
    assert b.get("/h").entries == 1


def test_tree_merge_incompatible_raises():
    a = ObjectTree()
    b = ObjectTree()
    a.put("/h", hist("h"))
    b.put("/h", Profile1D("p", bins=4, lower=0.0, upper=1.0))
    with pytest.raises(TreeError):
        a.merge_from(b)


def test_tree_copy_independent():
    tree = ObjectTree()
    tree.put("/h", hist("h", entries=1))
    clone = tree.copy()
    clone.get("/h").fill(5.0)
    assert tree.get("/h").entries == 1


def test_tree_reset_all():
    tree = ObjectTree()
    tree.put("/h", hist("h", entries=5))
    tree.reset_all()
    assert tree.get("/h").entries == 0


def test_tree_serialization_roundtrip():
    tree = ObjectTree()
    tree.put("/higgs/mass", hist("mass", entries=4))
    prof = Profile1D("p", bins=4, lower=0.0, upper=1.0)
    prof.fill(0.5, 2.0)
    tree.put("/p", prof)
    restored = ObjectTree.from_dict(tree.to_dict())
    assert restored.paths() == tree.paths()
    assert restored.get("/higgs/mass").entries == 4
    assert restored.get("/p").entries == 1
