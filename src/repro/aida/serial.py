"""Serialization and merge dispatch for AIDA objects.

Engines ship snapshots to the AIDA manager as plain dicts (the stand-in for
Java serialization over RMI); these helpers turn any supported object into a
dict and back, and merge two compatible objects regardless of concrete type.
"""

from __future__ import annotations

from typing import Any, Dict, Type

from repro.aida.hist1d import Histogram1D
from repro.aida.hist2d import Histogram2D
from repro.aida.profile import Profile1D

_REGISTRY: Dict[str, Type] = {
    "Histogram1D": Histogram1D,
    "Histogram2D": Histogram2D,
    "Profile1D": Profile1D,
}


def to_dict(obj: Any) -> dict:
    """Serialize any supported AIDA object to a JSON-compatible dict."""
    kind = getattr(obj, "kind", None)
    if kind not in _REGISTRY:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return obj.to_dict()


def from_dict(data: dict) -> Any:
    """Reconstruct an AIDA object from its :func:`to_dict` form."""
    if data.get("kind") == "ObjectTree":
        from repro.aida.tree import ObjectTree

        return ObjectTree.from_dict(data)
    try:
        cls = _REGISTRY[data["kind"]]
    except KeyError:
        raise TypeError(f"unknown object kind {data.get('kind')!r}") from None
    return cls.from_dict(data)


def merge(left: Any, right: Any) -> Any:
    """Return a new object combining *left* and *right* (via ``+``).

    Both operands must be the same kind with compatible structure; the
    inputs are not modified.
    """
    if getattr(left, "kind", None) != getattr(right, "kind", None):
        raise TypeError(
            f"cannot merge {type(left).__name__} with {type(right).__name__}"
        )
    return left + right
