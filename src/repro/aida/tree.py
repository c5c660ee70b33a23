"""Hierarchical tree of named analysis objects.

Mirrors AIDA's ``ITree``: analysis objects live at slash-separated paths
(``/higgs/dijet_mass``), directories are created on demand, and the JAS
client browses this tree to pick which histogram to display (§3.7, Fig. 4).
The tree is also the unit the AIDA manager merges: merging two trees merges
every object present in both and copies objects present in only one.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterator, List, Optional, Set, Tuple

from repro.aida.base import Freezable
from repro.aida.codec import encode_array, payload_nbytes

#: ``payload_nbytes`` of an empty tree's dict form.
_EMPTY_TREE_NBYTES = payload_nbytes({"kind": "ObjectTree", "objects": {}})


class TreeError(Exception):
    """Raised for invalid tree paths or operations."""


def split_path(path: str) -> Tuple[str, ...]:
    """Normalize a slash path into components; rejects empty components."""
    if not path or not path.startswith("/"):
        raise TreeError(f"path must be absolute (got {path!r})")
    parts = tuple(p for p in path.split("/") if p)
    for part in parts:
        if part in (".", ".."):
            raise TreeError(f"relative component {part!r} not allowed")
    return parts


def join_path(parts: Tuple[str, ...]) -> str:
    """Inverse of :func:`split_path`."""
    return "/" + "/".join(parts)


def _walk_key(path: str) -> List[Tuple[int, str]]:
    """Depth-first walk order: per level, objects before subdirectories."""
    *dirs, leaf = path[1:].split("/")
    return [(1, name) for name in dirs] + [(0, leaf)]


class _Directory:
    __slots__ = ("subdirs", "objects")

    def __init__(self) -> None:
        self.subdirs: Dict[str, "_Directory"] = {}
        #: Leaf names of the objects stored here (the tree indexes them).
        self.objects: Set[str] = set()


class ObjectTree(Freezable):
    """A mounted hierarchy of analysis objects.

    All stored objects are expected to expose the small AIDA protocol used
    across this package: ``name``, ``kind``, ``to_dict()``, ``copy()``,
    ``freeze()`` and (for mergeables) ``__iadd__``.  A frozen tree (what
    engines publish and the manager serves) refuses ``put`` / ``remove``
    / ``mkdir``; ``copy()`` gives a writable one.
    """

    def __init__(self) -> None:
        self._root = _Directory()
        #: Every object by normalized path: lookups skip the directories.
        self._objects: Dict[str, object] = {}
        #: Object paths in walk order; ``None`` once a path comes or goes.
        self._order: Optional[List[str]] = None
        # Per-path put generation: bumped whenever an object is (re)stored
        # at a path, so replacing an object is visible to dirty tracking
        # even when the new object's own data_version happens to match.
        self._put_gen: Dict[str, int] = {}
        self._put_serial = 0

    # -- directories ------------------------------------------------------
    def mkdir(self, path: str) -> None:
        """Create a directory (and parents) at *path*; idempotent."""
        self._check_mutable()
        node = self._root
        for part in split_path(path):
            if part in node.objects:
                raise TreeError(f"object exists at {part!r}; cannot mkdir")
            node = node.subdirs.setdefault(part, _Directory())

    def _walk_to(self, parts: Tuple[str, ...]) -> _Directory:
        node = self._root
        for part in parts:
            try:
                node = node.subdirs[part]
            except KeyError:
                raise TreeError(f"no such directory {join_path(parts)!r}") from None
        return node

    def ls(self, path: str = "/") -> List[str]:
        """Names in a directory: subdirectories (with ``/``) then objects."""
        parts = split_path(path) if path != "/" else ()
        node = self._walk_to(parts)
        return sorted(f"{d}/" for d in node.subdirs) + sorted(node.objects)

    def is_dir(self, path: str) -> bool:
        """Whether *path* names an existing directory."""
        if path == "/":
            return True
        try:
            self._walk_to(split_path(path))
            return True
        except TreeError:
            return False

    # -- objects ----------------------------------------------------------
    def put(self, path: str, obj: object) -> None:
        """Store *obj* at *path*, creating parent directories."""
        self._check_mutable()
        if path not in self._objects:
            path = self._place(path)
        self._objects[path] = obj
        self._put_serial += 1
        self._put_gen[path] = self._put_serial

    def _place(self, path: str) -> str:
        """Make room for an object at *path*; returns the normalized path."""
        parts = split_path(path)
        if not parts:
            raise TreeError("cannot store an object at /")
        *dirs, leaf = parts
        node = self._root
        for part in dirs:
            if part in node.objects:
                raise TreeError(f"object exists at {part!r}; cannot descend")
            node = node.subdirs.setdefault(part, _Directory())
        if leaf in node.subdirs:
            raise TreeError(f"directory exists at {path!r}; cannot store object")
        node.objects.add(leaf)
        self._order = None
        return join_path(parts)

    def get(self, path: str) -> object:
        """Fetch the object at *path* (raises :class:`TreeError` if absent)."""
        try:
            return self._objects[path]
        except KeyError:
            pass
        parts = split_path(path)
        self._walk_to(parts[:-1])
        try:
            return self._objects[join_path(parts)]
        except KeyError:
            raise TreeError(f"no object at {path!r}") from None

    def exists(self, path: str) -> bool:
        """Whether an object is stored at *path*."""
        try:
            self.get(path)
            return True
        except TreeError:
            return False

    def remove(self, path: str) -> None:
        """Delete the object or (empty or not) directory at *path*."""
        self._check_mutable()
        parts = split_path(path)
        *dirs, leaf = parts
        node = self._walk_to(tuple(dirs))
        full = join_path(parts)
        if leaf in node.objects:
            node.objects.remove(leaf)
            gone = [full]
        elif leaf in node.subdirs:
            del node.subdirs[leaf]
            gone = [k for k in self._objects if k.startswith(full + "/")]
        else:
            raise TreeError(f"nothing at {path!r}")
        for key in gone:
            del self._objects[key]
            self._put_gen.pop(key, None)
        self._order = None

    # -- traversal ----------------------------------------------------------
    def _walk_order(self) -> List[str]:
        if self._order is None:
            self._order = sorted(self._objects, key=_walk_key)
        return self._order

    def walk(self) -> Iterator[Tuple[str, object]]:
        """Yield every (path, object) pair in depth-first sorted order."""
        objects = self._objects
        return ((path, objects[path]) for path in self._walk_order())

    def paths(self) -> List[str]:
        """All object paths in the tree."""
        return list(self._walk_order())

    def find(self, name: str) -> List[str]:
        """Paths of every object whose leaf name equals *name*."""
        return [p for p in self.paths() if p.rsplit("/", 1)[-1] == name]

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, path: str) -> bool:
        return self.exists(path)

    # -- dirty tracking ------------------------------------------------------
    def versions(self) -> Dict[str, Tuple[int, Optional[int]]]:
        """Per-path ``(put_generation, data_version)`` fingerprints.

        The put generation changes when an object is (re)stored at a path;
        the data version is the object's own mutation counter (``None`` for
        objects without one, which delta snapshots must then treat as
        always dirty).  Together they let a publisher decide which objects
        changed since a previous call without hashing any payloads.
        """
        return {
            path: (
                self._put_gen.get(path, 0),
                getattr(obj, "data_version", None),
            )
            for path, obj in self.walk()
        }

    # -- merge / copy ----------------------------------------------------------
    def merge_from(self, other: "ObjectTree") -> None:
        """Merge another tree into this one.

        Objects at paths present in both trees are combined with ``+=``;
        objects only in *other* are deep-copied in.  This is the fold the
        merge oracle (``tests/merge_oracle.py``) holds ``MergeTree`` to.
        """
        for path, obj in other.walk():
            if self.exists(path):
                mine = self.get(path)
                try:
                    mine += obj  # type: ignore[operator]
                except TypeError as exc:
                    raise TreeError(
                        f"cannot merge object at {path!r}: {exc}"
                    ) from exc
                # += on immutable containers returns a new object.
                self.put(path, mine)
            else:
                self.put(path, obj.copy())  # type: ignore[attr-defined]

    def copy(self) -> "ObjectTree":
        """Deep, writable copy of the whole tree."""
        clone = ObjectTree()
        for path, obj in self.walk():
            clone.put(path, obj.copy())  # type: ignore[attr-defined]
        return clone

    def frozen_copy(self, only: Optional[Collection[str]] = None) -> "ObjectTree":
        """A frozen tree of frozen copies of the objects — with *only*,
        just those at these paths (what an engine publishes).  The index
        (walk order, put generations, directories) is cloned, not rebuilt."""
        clone = ObjectTree()
        order = [p for p in self._walk_order() if only is None or p in only]
        for path in order:
            *dirs, leaf = path[1:].split("/")
            node = clone._root
            for part in dirs:
                node = node.subdirs.setdefault(part, _Directory())
            node.objects.add(leaf)
        objects = self._objects
        clone._objects = {p: objects[p].copy().freeze() for p in order}
        clone._order = order
        clone._put_gen = {p: self._put_gen[p] for p in order}
        clone._put_serial = self._put_serial
        return clone.freeze()

    def update(self, other: "ObjectTree") -> None:
        """Store every object of *other* at its path, replacing what is
        there — the objects themselves, shared, not copied."""
        for path, obj in other.walk():
            self.put(path, obj)

    def reset_all(self) -> None:
        """Reset every object in place (the rewind operation)."""
        for _, obj in self.walk():
            obj.reset()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return f"<ObjectTree {len(self)} objects>"

    # -- serialization ------------------------------------------------------
    def to_wire(self, array=encode_array) -> dict:
        """The dict form, each array passed through *array*.  Encoded, it
        is :meth:`to_dict`: the durable form (checkpoints, digests)."""
        return {
            "kind": "ObjectTree",
            "objects": {
                path: obj.to_wire(array)  # type: ignore[attr-defined]
                for path, obj in self.walk()
            },
        }

    to_dict = to_wire

    def wire_nbytes(self) -> int:
        """``payload_nbytes`` of :meth:`to_dict`'s form, each object sized by its own."""
        return _EMPTY_TREE_NBYTES + sum(len(p) + 4 + payload_nbytes(o) for p, o in self.walk())

    @classmethod
    def from_dict(cls, data: dict) -> "ObjectTree":
        """Reconstruct a tree serialized with :meth:`to_dict`."""
        from repro.aida.serial import from_dict as object_from_dict

        tree = cls()
        for path, obj_data in data["objects"].items():
            tree.put(path, object_from_dict(obj_data))
        return tree
