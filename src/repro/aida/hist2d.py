"""Two-dimensional weighted histogram."""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.aida.axis import Axis
from repro.aida.base import Binned
from repro.aida.codec import encode_array
from repro.aida.hist1d import Histogram1D


class Histogram2D(Binned):
    """AIDA-style 2-D histogram with under/overflow on both axes.

    Storage is a ``(xbins + 2) x (ybins + 2)`` weight grid; row/column 0 and
    -1 hold the out-of-range slots for each axis.  Merge and serialization
    semantics mirror :class:`~repro.aida.hist1d.Histogram1D`.
    """

    kind = "Histogram2D"
    _arrays = ("_counts", "_sumw", "_sumw2")
    _moments = ("_swx", "_swy", "_swx2", "_swy2")
    _axes = ("x_axis", "y_axis")

    def __init__(
        self,
        name: str,
        title: str = "",
        x_axis: Optional[Axis] = None,
        y_axis: Optional[Axis] = None,
        x_bins: Optional[int] = None,
        x_lower: Optional[float] = None,
        x_upper: Optional[float] = None,
        y_bins: Optional[int] = None,
        y_lower: Optional[float] = None,
        y_upper: Optional[float] = None,
    ) -> None:
        if not name:
            raise ValueError("histogram name must be non-empty")
        self.name = name
        self.title = title or name
        self.x_axis = x_axis or Axis(bins=x_bins, lower=x_lower, upper=x_upper)
        self.y_axis = y_axis or Axis(bins=y_bins, lower=y_lower, upper=y_upper)
        shape = (self.x_axis.bins + 2, self.y_axis.bins + 2)
        self._counts = np.zeros(shape, dtype=np.int64)
        self._sumw = np.zeros(shape, dtype=float)
        self._sumw2 = np.zeros(shape, dtype=float)
        # In-range weighted moments.
        self._swx = 0.0
        self._swy = 0.0
        self._swx2 = 0.0
        self._swy2 = 0.0
        # Bumped on every mutation; drives delta-snapshot dirty tracking.
        self._version = 0

    # -- filling ----------------------------------------------------------
    def fill(self, x: float, y: float, weight: float = 1.0) -> None:
        """Add one (x, y) entry."""
        self._touch()
        sx = self.x_axis.index_to_storage(self.x_axis.coord_to_index(x))
        sy = self.y_axis.index_to_storage(self.y_axis.coord_to_index(y))
        self._counts[sx, sy] += 1
        self._sumw[sx, sy] += weight
        self._sumw2[sx, sy] += weight * weight
        if 1 <= sx <= self.x_axis.bins and 1 <= sy <= self.y_axis.bins:
            self._swx += weight * x
            self._swy += weight * y
            self._swx2 += weight * x * x
            self._swy2 += weight * y * y

    def fill_array(
        self,
        xs: Union[Sequence[float], np.ndarray],
        ys: Union[Sequence[float], np.ndarray],
        weights: Optional[Union[Sequence[float], np.ndarray]] = None,
    ) -> None:
        """Vectorized fill of many (x, y) pairs."""
        self._touch()
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be equal-length 1-D arrays")
        if weights is None:
            w = np.ones_like(xs)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != xs.shape:
                raise ValueError("weights must match xs in shape")
        sx = self.x_axis.coords_to_storage(xs)
        sy = self.y_axis.coords_to_storage(ys)
        np.add.at(self._counts, (sx, sy), 1)
        np.add.at(self._sumw, (sx, sy), w)
        np.add.at(self._sumw2, (sx, sy), w * w)
        in_range = (
            (sx >= 1)
            & (sx <= self.x_axis.bins)
            & (sy >= 1)
            & (sy <= self.y_axis.bins)
        )
        xin, yin, win = xs[in_range], ys[in_range], w[in_range]
        self._swx += float(np.dot(win, xin))
        self._swy += float(np.dot(win, yin))
        self._swx2 += float(np.dot(win, xin * xin))
        self._swy2 += float(np.dot(win, yin * yin))

    # -- statistics -------------------------------------------------------
    @property
    def entries(self) -> int:
        """Number of in-range entries."""
        return int(self._counts[1:-1, 1:-1].sum())

    @property
    def all_entries(self) -> int:
        """Entries including out-of-range slots."""
        return int(self._counts.sum())

    @property
    def sum_bin_heights(self) -> float:
        """Sum of in-range weights."""
        return float(self._sumw[1:-1, 1:-1].sum())

    def _mean(self, moment: float) -> float:
        sw = self.sum_bin_heights
        return moment / sw if sw else float("nan")

    @property
    def mean_x(self) -> float:
        """Weighted mean of x for in-range entries."""
        return self._mean(self._swx)

    @property
    def mean_y(self) -> float:
        """Weighted mean of y for in-range entries."""
        return self._mean(self._swy)

    @property
    def rms_x(self) -> float:
        """Weighted RMS of x for in-range entries."""
        sw = self.sum_bin_heights
        if not sw:
            return float("nan")
        mean = self._swx / sw
        return float(np.sqrt(max(0.0, self._swx2 / sw - mean * mean)))

    @property
    def rms_y(self) -> float:
        """Weighted RMS of y for in-range entries."""
        sw = self.sum_bin_heights
        if not sw:
            return float("nan")
        mean = self._swy / sw
        return float(np.sqrt(max(0.0, self._swy2 / sw - mean * mean)))

    # -- per-bin accessors --------------------------------------------------
    def bin_height(self, ix: int, iy: int) -> float:
        """Weight of bin (ix, iy); sentinels accepted on both axes."""
        sx = self.x_axis.index_to_storage(ix)
        sy = self.y_axis.index_to_storage(iy)
        return float(self._sumw[sx, sy])

    def bin_entries(self, ix: int, iy: int) -> int:
        """Entry count of bin (ix, iy)."""
        sx = self.x_axis.index_to_storage(ix)
        sy = self.y_axis.index_to_storage(iy)
        return int(self._counts[sx, sy])

    def bin_error(self, ix: int, iy: int) -> float:
        """Poisson-style error of bin (ix, iy)."""
        sx = self.x_axis.index_to_storage(ix)
        sy = self.y_axis.index_to_storage(iy)
        return float(np.sqrt(self._sumw2[sx, sy]))

    def heights(self) -> np.ndarray:
        """In-range weight grid, shape (x_bins, y_bins) (copy)."""
        return self._sumw[1:-1, 1:-1].copy()

    # -- projections ----------------------------------------------------------
    def projection_x(self, name: Optional[str] = None) -> Histogram1D:
        """Project onto x: sum weights over all in-range y bins."""
        hist = Histogram1D(
            name or f"{self.name}_px", f"{self.title} (proj x)", axis=self.x_axis
        )
        hist._counts = self._counts[:, 1:-1].sum(axis=1)
        hist._sumw = self._sumw[:, 1:-1].sum(axis=1)
        hist._sumw2 = self._sumw2[:, 1:-1].sum(axis=1)
        hist._swx = self._swx
        hist._swx2 = self._swx2
        return hist

    def projection_y(self, name: Optional[str] = None) -> Histogram1D:
        """Project onto y: sum weights over all in-range x bins."""
        hist = Histogram1D(
            name or f"{self.name}_py", f"{self.title} (proj y)", axis=self.y_axis
        )
        hist._counts = self._counts[1:-1, :].sum(axis=0)
        hist._sumw = self._sumw[1:-1, :].sum(axis=0)
        hist._sumw2 = self._sumw2[1:-1, :].sum(axis=0)
        hist._swx = self._swy
        hist._swx2 = self._swy2
        return hist

    def __repr__(self) -> str:
        return (
            f"<Histogram2D {self.name!r} "
            f"bins={self.x_axis.bins}x{self.y_axis.bins} "
            f"entries={self.entries}>"
        )

    # -- serialization ------------------------------------------------------
    def to_wire(self, array=encode_array) -> dict:
        """The JSON-compatible dict form, each array passed through *array*."""
        return {
            "kind": self.kind,
            "name": self.name,
            "title": self.title,
            "x_axis": self.x_axis.to_wire(array),
            "y_axis": self.y_axis.to_wire(array),
            "counts": array(self._counts),
            "sumw": array(self._sumw),
            "sumw2": array(self._sumw2),
            "moments": [self._swx, self._swy, self._swx2, self._swy2],
        }

    to_dict = to_wire

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram2D":
        """Reconstruct a histogram serialized with :meth:`to_dict`."""
        moments = dict(zip(cls._moments, map(float, data["moments"])))
        return cls._restore(
            data,
            x_axis=Axis.from_dict(data["x_axis"]),
            y_axis=Axis.from_dict(data["y_axis"]),
            **moments,
        )
