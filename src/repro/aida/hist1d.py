"""One-dimensional weighted histogram with exact merge semantics."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from repro.aida.axis import OVERFLOW, UNDERFLOW, Axis
from repro.aida.base import Binned
from repro.aida.codec import MIN_CODEC_SIZE, encode_array, encoded_size, payload_nbytes

#: Unit weights for ``fill_array(xs)``, sliced rather than allocated.
_ONES = np.ones(4096)
_ONES.flags.writeable = False


class Histogram1D(Binned):
    """AIDA-style 1-D histogram.

    Storage arrays have length ``bins + 2``: slot 0 is underflow, slots
    ``1..bins`` are in-range, slot ``bins + 1`` is overflow.  Tracked per
    slot: entry counts, sum of weights, sum of squared weights (for
    Poisson-style bin errors).  Global first and second weighted moments of
    in-range entries give :attr:`mean` and :attr:`rms`.

    Merging (``+``) requires identical axes and sums all statistics, so a
    histogram filled on N engines and merged equals the histogram filled on
    one engine with the concatenated data — the invariant the IPA merge
    architecture relies on (property-tested in
    ``tests/test_properties_aida.py``).

    Parameters
    ----------
    name:
        Identifier used as the object's path leaf in the tree.
    title:
        Human-readable title for display.
    bins, lower, upper, edges:
        Binning, forwarded to :class:`~repro.aida.axis.Axis` (or pass an
        ``Axis`` via *axis*).
    """

    kind = "Histogram1D"
    _arrays = ("_counts", "_sumw", "_sumw2")
    _moments = ("_swx", "_swx2")
    #: Every weight sum is its count, bit for bit (no -0.0): proven by a
    #: unit-weight fill, dropped by every mutator (:meth:`_touch`).
    _unit_sums = False

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
            raise ValueError("histogram name must be non-empty")
        self.name = name
        self.title = title or name
        if axis is not None:
            self.axis = axis
        else:
            self.axis = Axis(bins=bins, lower=lower, upper=upper, edges=edges)
        size = self.axis.bins + 2
        self._counts = np.zeros(size, dtype=np.int64)
        self._sumw = np.zeros(size, dtype=float)
        self._sumw2 = np.zeros(size, dtype=float)
        # In-range weighted moments for mean/rms.
        self._swx = 0.0
        self._swx2 = 0.0
        # Bumped on every mutation; drives delta-snapshot dirty tracking.
        self._version = 0

    def _touch(self) -> None:
        super()._touch()
        self._unit_sums = False

    # -- filling ----------------------------------------------------------
    def fill(self, x: float, weight: float = 1.0) -> None:
        """Add one entry at *x* with the given *weight*."""
        self._touch()
        index = self.axis.coord_to_index(x)
        slot = self.axis.index_to_storage(index)
        self._counts[slot] += 1
        self._sumw[slot] += weight
        self._sumw2[slot] += weight * weight
        if index not in (UNDERFLOW, OVERFLOW):
            self._swx += weight * x
            self._swx2 += weight * x * x

    def fill_array(
        self,
        xs: Union[Sequence[float], np.ndarray],
        weights: Optional[Union[Sequence[float], np.ndarray]] = None,
    ) -> None:
        """Vectorized fill of many entries at once (the engine hot path).

        Unit weights into sums that are still their counts add one
        ``bincount``: the integers ``np.add.at`` reaches ``+ 1.0`` at a time."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 1:
            raise ValueError("xs must be 1-D")
        if weights is None:
            w = _ONES[:len(xs)] if len(xs) <= len(_ONES) else np.ones(len(xs))
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != xs.shape:
                raise ValueError("weights must match xs in shape")
        unit = weights is None and self._unit_sums  # read before _touch drops it
        self._touch()
        counts, sumw, sumw2 = self._counts, self._sumw, self._sumw2
        if weights is None and not unit:
            unit = np.array_equal(sumw, counts) and np.array_equal(sumw2, counts)
            unit = unit and not (np.signbit(sumw) | np.signbit(sumw2)).any()
        if unit:
            slots, added = self.axis.storage_counts(xs)
            counts += added
            sumw += added
            sumw2 += added
        else:
            slots = self.axis.coords_to_storage(xs)
            np.add.at(counts, slots, 1)
            np.add.at(sumw, slots, w)
            np.add.at(sumw2, slots, w * w)
        self._unit_sums = unit
        in_range = (slots >= 1) & (slots <= self.axis.bins)
        xin = xs[in_range]
        # The moments stay BLAS dots with the weights, ones included.
        win = w[:len(xin)] if weights is None else w[in_range]
        self._swx += float(np.dot(win, xin))
        self._swx2 += float(np.dot(win, xin * xin))

    # -- statistics -------------------------------------------------------
    @property
    def entries(self) -> int:
        """Number of in-range entries."""
        return int(self._counts[1:-1].sum())

    @property
    def all_entries(self) -> int:
        """Number of entries including under/overflow."""
        return int(self._counts.sum())

    @property
    def extra_entries(self) -> int:
        """Entries in the under/overflow slots."""
        return int(self._counts[0] + self._counts[-1])

    @property
    def sum_bin_heights(self) -> float:
        """Sum of in-range weights."""
        return float(self._sumw[1:-1].sum())

    @property
    def sum_all_bin_heights(self) -> float:
        """Sum of all weights including under/overflow."""
        return float(self._sumw.sum())

    @property
    def mean(self) -> float:
        """Weighted mean of in-range entries (NaN when empty)."""
        sw = self.sum_bin_heights
        if sw == 0:
            return float("nan")
        return self._swx / sw

    @property
    def rms(self) -> float:
        """Weighted RMS (sqrt of variance) of in-range entries."""
        sw = self.sum_bin_heights
        if sw == 0:
            return float("nan")
        mean = self._swx / sw
        variance = max(0.0, self._swx2 / sw - mean * mean)
        return float(np.sqrt(variance))

    @property
    def max_bin_height(self) -> float:
        """Largest in-range bin weight."""
        return float(self._sumw[1:-1].max()) if self.axis.bins else 0.0

    # -- per-bin accessors --------------------------------------------------
    def bin_entries(self, index: int) -> int:
        """Entry count of a bin (accepts UNDERFLOW/OVERFLOW)."""
        return int(self._counts[self.axis.index_to_storage(index)])

    def bin_height(self, index: int) -> float:
        """Sum of weights of a bin (accepts UNDERFLOW/OVERFLOW)."""
        return float(self._sumw[self.axis.index_to_storage(index)])

    def bin_error(self, index: int) -> float:
        """Poisson-style bin error: sqrt(sum of squared weights)."""
        return float(np.sqrt(self._sumw2[self.axis.index_to_storage(index)]))

    def heights(self) -> np.ndarray:
        """In-range bin heights as an array (copy)."""
        return self._sumw[1:-1].copy()

    def errors(self) -> np.ndarray:
        """In-range bin errors as an array (copy)."""
        return np.sqrt(self._sumw2[1:-1])

    def underflow_height(self) -> float:
        """Weight collected below the axis range."""
        return float(self._sumw[0])

    def overflow_height(self) -> float:
        """Weight collected at/above the axis upper edge."""
        return float(self._sumw[-1])

    # -- algebra ------------------------------------------------------------
    def scale(self, factor: float) -> None:
        """Multiply every weight by *factor* (keeps entry counts)."""
        self._touch()
        self._sumw *= factor
        self._sumw2 *= factor * factor
        self._swx *= factor
        self._swx2 *= factor

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram1D):
            return NotImplemented
        return (
            self.name == other.name
            and self.axis == other.axis
            and np.array_equal(self._counts, other._counts)
            and np.array_equal(self._sumw, other._sumw, equal_nan=True)
            and np.array_equal(self._sumw2, other._sumw2, equal_nan=True)
            and np.array_equal((self._swx, self._swx2), (other._swx, other._swx2), equal_nan=True)
        )

    def __repr__(self) -> str:
        return (
            f"<Histogram1D {self.name!r} bins={self.axis.bins} "
            f"entries={self.entries}>"
        )

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
            "sumw2": array(self._sumw2),
            "swx": self._swx,
            "swx2": self._swx2,
        }

    to_dict = to_wire

    def wire_nbytes(self) -> int:
        """``payload_nbytes`` of :meth:`to_dict`'s form: a kept frame plus the moments."""
        axis = self.axis
        if not axis.fixed_binning or axis.bins + 2 < MIN_CODEC_SIZE:
            return payload_nbytes(self.to_wire(encoded_size))
        # Edges by repr: 0.0 and -0.0 are one key but differ in size.
        lower, upper = repr(axis.lower_edge), repr(axis.upper_edge)
        frame = _frame_nbytes(self.name, self.title, axis.bins, lower, upper)
        return frame + payload_nbytes(self._swx) + payload_nbytes(self._swx2)

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram1D":
        """Reconstruct a histogram serialized with :meth:`to_dict`."""
        return cls._restore(
            data,
            axis=Axis.from_dict(data["axis"]),
            _swx=float(data["swx"]),
            _swx2=float(data["swx2"]),
        )


@lru_cache(maxsize=256)
def _frame_nbytes(name: str, title: str, bins: int, lower: str, upper: str) -> int:
    """A fixed-axis histogram's size less its moments: its arrays are sized
    by shape alone (at least ``MIN_CODEC_SIZE`` slots), so these fix it."""
    empty = Histogram1D("_", bins=bins, lower=float(lower), upper=float(upper))
    empty.name, empty.title = name, title
    return payload_nbytes(empty.to_wire(encoded_size)) - 2 * payload_nbytes(0.0)
