"""What the binned AIDA objects share, and how they cross the planes.

Engines publish, and the AIDA manager serves, *frozen* objects: the same
Python objects travel engine → leaf combiner → root → client unserialized,
so isolation comes from immutability, not from a copy.  A frozen object's
arrays are read-only, and every mutator (``fill*``, ``+=``, ``scale``,
``reset``) raises ``ValueError`` before any statistic or its
``data_version`` changes; a frozen tree refuses ``put`` / ``remove`` /
``mkdir``.  ``copy()`` is writable.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.aida.codec import decode_array


class Freezable:
    """Mixin: :meth:`freeze` makes the object read-only in place."""

    #: Attribute names of the object's storage arrays.
    _arrays: Tuple[str, ...] = ()
    _frozen = False

    def freeze(self):
        """Make the object read-only in place; returns it."""
        for name in self._arrays:
            getattr(self, name).flags.writeable = False
        self._frozen = True
        return self

    def _check_mutable(self) -> None:
        # Called before anything changes: a read-only array refuses a write
        # only once the version has moved, ``np.add.at`` writes through the
        # flag, and a tree has no arrays.
        if self._frozen:
            raise ValueError(
                f"{type(self).__name__} is frozen (read-only); copy() it to edit"
            )


class Binned(Freezable):
    """A mergeable binned object: storage arrays (``_arrays``, counts
    first) plus scalar moments (``_moments``) over axes (``_axes``), all
    summed by ``+=`` — which is what makes a distributed fill exact."""

    _moments: Tuple[str, ...] = ()
    _axes: Tuple[str, ...] = ("axis",)

    def _touch(self) -> None:
        # Every mutator's first step: refuse a frozen object before the
        # version (or anything else) moves, then count the mutation.
        self._check_mutable()
        self._version += 1

    @property
    def data_version(self) -> int:
        """Monotonic mutation counter (fill/reset/merge/scale bump it)."""
        return self._version

    def reset(self) -> None:
        """Clear all statistics (the client's *rewind*, §3.6)."""
        self._touch()
        for attr in self._arrays:
            getattr(self, attr)[...] = 0
        for attr in self._moments:
            setattr(self, attr, 0.0)

    def __iadd__(self, other):
        """Merge *other*'s statistics into this object."""
        if not isinstance(other, type(self)):
            raise TypeError(
                f"cannot combine {self.kind} with {type(other).__name__}"
            )
        if any(getattr(self, a) != getattr(other, a) for a in self._axes):
            raise ValueError(
                f"incompatible axes for {self.name!r} and {other.name!r}"
            )
        self._touch()
        for attr in self._arrays:
            getattr(self, attr).__iadd__(getattr(other, attr))
        for attr in self._moments:
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))
        return self

    def __add__(self, other):
        """Return a new object with both sets of statistics."""
        result = self.copy()
        result += other
        return result

    def copy(self, name: Optional[str] = None):
        """Deep, writable copy (of a frozen one too), optionally renamed."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__, _version=0)
        clone.__dict__.pop("_frozen", None)
        for attr in self._arrays:
            setattr(clone, attr, getattr(self, attr).copy())
        if name:
            clone.name = name
        return clone

    @classmethod
    def _restore(cls, data: dict, **fields):
        """An object from its ``to_dict()`` form: *fields* (axes, moments)
        as given, the arrays decoded (counts as int64, the rest float)."""
        obj = object.__new__(cls)
        obj.__dict__.update(
            name=data["name"], title=data["title"], _version=0, **fields
        )
        for attr in cls._arrays:
            dtype = np.int64 if attr == "_counts" else float
            setattr(obj, attr, decode_array(data[attr[1:]], dtype=dtype))
        return obj
