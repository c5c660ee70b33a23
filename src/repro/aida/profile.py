"""Profile histogram: per-x-bin mean and spread of a y quantity."""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.aida.axis import Axis
from repro.aida.base import Binned
from repro.aida.codec import encode_array


class Profile1D(Binned):
    """AIDA-style 1-D profile.

    For each x bin it tracks the weighted moments of y so the bin *height*
    is the mean of y and the bin *spread* its RMS — the standard tool for
    "average response vs. coordinate" plots.  Merging sums the moments, so
    distributed filling is exact.
    """

    kind = "Profile1D"
    _arrays = ("_counts", "_sumw", "_sumwy", "_sumwy2")

    def __init__(
        self,
        name: str,
        title: str = "",
        bins: Optional[int] = None,
        lower: Optional[float] = None,
        upper: Optional[float] = None,
        edges: Optional[Sequence[float]] = None,
        axis: Optional[Axis] = None,
    ) -> None:
        if not name:
            raise ValueError("profile name must be non-empty")
        self.name = name
        self.title = title or name
        self.axis = axis or Axis(bins=bins, lower=lower, upper=upper, edges=edges)
        size = self.axis.bins + 2
        self._counts = np.zeros(size, dtype=np.int64)
        self._sumw = np.zeros(size, dtype=float)
        self._sumwy = np.zeros(size, dtype=float)
        self._sumwy2 = np.zeros(size, dtype=float)
        # Bumped on every mutation; drives delta-snapshot dirty tracking.
        self._version = 0

    # -- filling ----------------------------------------------------------
    def fill(self, x: float, y: float, weight: float = 1.0) -> None:
        """Add one (x, y) sample."""
        self._touch()
        slot = self.axis.index_to_storage(self.axis.coord_to_index(x))
        self._counts[slot] += 1
        self._sumw[slot] += weight
        self._sumwy[slot] += weight * y
        self._sumwy2[slot] += weight * y * y

    def fill_array(
        self,
        xs: Union[Sequence[float], np.ndarray],
        ys: Union[Sequence[float], np.ndarray],
        weights: Optional[Union[Sequence[float], np.ndarray]] = None,
    ) -> None:
        """Vectorized fill of many samples."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be equal-length 1-D arrays")
        w = (
            np.ones_like(xs)
            if weights is None
            else np.asarray(weights, dtype=float)
        )
        if w.shape != xs.shape:
            raise ValueError("weights must match xs in shape")
        self._touch()
        slots = self.axis.coords_to_storage(xs)
        np.add.at(self._counts, slots, 1)
        np.add.at(self._sumw, slots, w)
        np.add.at(self._sumwy, slots, w * ys)
        np.add.at(self._sumwy2, slots, w * ys * ys)

    # -- accessors ----------------------------------------------------------
    @property
    def entries(self) -> int:
        """Number of in-range samples."""
        return int(self._counts[1:-1].sum())

    def bin_entries(self, index: int) -> int:
        """Sample count in a bin (sentinels accepted)."""
        return int(self._counts[self.axis.index_to_storage(index)])

    def bin_height(self, index: int) -> float:
        """Mean of y in the bin (NaN when empty)."""
        slot = self.axis.index_to_storage(index)
        sw = self._sumw[slot]
        return float(self._sumwy[slot] / sw) if sw else float("nan")

    def bin_spread(self, index: int) -> float:
        """RMS of y in the bin (NaN when empty)."""
        slot = self.axis.index_to_storage(index)
        sw = self._sumw[slot]
        if not sw:
            return float("nan")
        mean = self._sumwy[slot] / sw
        return float(np.sqrt(max(0.0, self._sumwy2[slot] / sw - mean * mean)))

    def bin_error(self, index: int) -> float:
        """Error on the mean: spread / sqrt(entries) (NaN when empty)."""
        n = self.bin_entries(index)
        if n == 0:
            return float("nan")
        return self.bin_spread(index) / np.sqrt(n)

    def heights(self) -> np.ndarray:
        """Mean of y per in-range bin (NaN for empty bins)."""
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(
                self._sumw[1:-1] > 0,
                self._sumwy[1:-1] / self._sumw[1:-1],
                np.nan,
            )

    def __repr__(self) -> str:
        return f"<Profile1D {self.name!r} bins={self.axis.bins} entries={self.entries}>"

    # -- serialization ------------------------------------------------------
    def to_wire(self, array=encode_array) -> dict:
        """The JSON-compatible dict form, each array passed through *array*."""
        return {
            "kind": self.kind,
            "name": self.name,
            "title": self.title,
            "axis": self.axis.to_wire(array),
            "counts": array(self._counts),
            "sumw": array(self._sumw),
            "sumwy": array(self._sumwy),
            "sumwy2": array(self._sumwy2),
        }

    to_dict = to_wire

    @classmethod
    def from_dict(cls, data: dict) -> "Profile1D":
        """Reconstruct a profile serialized with :meth:`to_dict`."""
        return cls._restore(data, axis=Axis.from_dict(data["axis"]))
