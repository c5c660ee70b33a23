"""Binned axis shared by histograms and profiles.

Supports equal-width binning (the common case) and explicit variable bin
edges.  Bin indexing follows the AIDA convention used throughout this
package's storage arrays:

* index ``0`` — underflow (x < lower edge),
* indices ``1 .. bins`` — in-range bins,
* index ``bins + 1`` — overflow (x >= upper edge).

Public methods that take or return *bin numbers* use 0-based in-range
indices (``0 .. bins-1``); the under/overflow slots are reached through the
dedicated accessors on the histogram types.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.aida.codec import decode_array, encode_array

UNDERFLOW = -2
OVERFLOW = -1


class Axis:
    """A 1-D binning of the real line into ``bins`` intervals.

    Parameters
    ----------
    bins:
        Number of in-range bins (>= 1).
    lower, upper:
        Axis range; ``lower < upper``.  Ignored when *edges* is given.
    edges:
        Optional explicit, strictly increasing bin edges (length bins+1);
        overrides ``bins/lower/upper``.
    """

    __slots__ = ("_edges", "_fixed", "_width")

    def __init__(
        self,
        bins: Optional[int] = None,
        lower: Optional[float] = None,
        upper: Optional[float] = None,
        edges: Optional[Sequence[float]] = None,
    ) -> None:
        if edges is not None:
            arr = np.asarray(edges, dtype=float)
            if arr.ndim != 1 or arr.size < 2:
                raise ValueError("edges must be a 1-D sequence of >= 2 values")
            if not np.all(np.diff(arr) > 0):
                raise ValueError("edges must be strictly increasing")
            self._edges = arr
            self._fixed = False
            self._width = float("nan")
        else:
            if bins is None or lower is None or upper is None:
                raise ValueError("provide either edges or bins/lower/upper")
            if bins < 1:
                raise ValueError("bins must be >= 1")
            if not lower < upper:
                raise ValueError("lower must be < upper")
            self._edges = np.linspace(float(lower), float(upper), bins + 1)
            self._fixed = True
            self._width = (upper - lower) / bins

    # -- basic properties -------------------------------------------------
    @property
    def bins(self) -> int:
        """Number of in-range bins."""
        return len(self._edges) - 1

    @property
    def lower_edge(self) -> float:
        """Lower edge of the axis."""
        return float(self._edges[0])

    @property
    def upper_edge(self) -> float:
        """Upper edge of the axis."""
        return float(self._edges[-1])

    @property
    def edges(self) -> np.ndarray:
        """All bin edges (length ``bins + 1``); read-only view."""
        view = self._edges.view()
        view.flags.writeable = False
        return view

    @property
    def fixed_binning(self) -> bool:
        """Whether the axis has equal-width bins."""
        return self._fixed

    # -- bin geometry -------------------------------------------------------
    def bin_lower_edge(self, index: int) -> float:
        """Lower edge of in-range bin *index* (0-based)."""
        self._check_index(index)
        return float(self._edges[index])

    def bin_upper_edge(self, index: int) -> float:
        """Upper edge of in-range bin *index*."""
        self._check_index(index)
        return float(self._edges[index + 1])

    def bin_width(self, index: int) -> float:
        """Width of in-range bin *index*."""
        self._check_index(index)
        return float(self._edges[index + 1] - self._edges[index])

    def bin_center(self, index: int) -> float:
        """Center of in-range bin *index*."""
        self._check_index(index)
        return float(0.5 * (self._edges[index] + self._edges[index + 1]))

    def bin_centers(self) -> np.ndarray:
        """Centers of all in-range bins."""
        return 0.5 * (self._edges[:-1] + self._edges[1:])

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.bins:
            raise IndexError(f"bin index {index} out of range 0..{self.bins - 1}")

    # -- coordinate lookup ----------------------------------------------
    def coord_to_index(self, x: float) -> int:
        """Map a coordinate to a bin index.

        Returns the 0-based in-range index, or :data:`UNDERFLOW` /
        :data:`OVERFLOW` sentinels.  NaN maps to UNDERFLOW.
        """
        if np.isnan(x):
            return UNDERFLOW
        if x < self._edges[0]:
            return UNDERFLOW
        if x >= self._edges[-1]:
            return OVERFLOW
        # searchsorted keeps scalar and vectorized fills bit-identical even
        # at bin edges (a plain division can disagree near linspace edges).
        return int(np.searchsorted(self._edges, x, side="right") - 1)

    def coords_to_storage(self, xs: np.ndarray) -> np.ndarray:
        """Vectorized coordinate -> *storage* index (0=under .. bins+1=over).

        NaNs map to the underflow slot, matching :meth:`coord_to_index`.
        """
        return self.storage_counts(np.asarray(xs, dtype=float))[0]

    def storage_counts(self, xs: np.ndarray) -> tuple:
        """:meth:`coords_to_storage` of a float array and the number of
        entries in each storage slot (length ``bins + 2``)."""
        # searchsorted over the bins + 1 edges returns 0..bins+1 only:
        # x < first edge at 0 (underflow), x >= last edge at bins+1,
        # in-range values at 1..bins.  NaN sorts to the end under
        # 'right', so only a non-empty overflow slot can hold one; force
        # it to underflow.
        idx = self._edges.searchsorted(xs, side="right")
        counts = np.bincount(idx, minlength=len(self._edges) + 1)
        if counts[-1]:
            nan = np.isnan(xs)
            idx[nan] = 0
            moved = np.count_nonzero(nan)
            counts[0] += moved
            counts[-1] -= moved
        return idx, counts

    def storage_to_index(self, storage: int) -> int:
        """Convert a storage slot (0..bins+1) to a public index."""
        if storage == 0:
            return UNDERFLOW
        if storage == self.bins + 1:
            return OVERFLOW
        return storage - 1

    def index_to_storage(self, index: int) -> int:
        """Convert a public index (incl. sentinels) to a storage slot."""
        if index == UNDERFLOW:
            return 0
        if index == OVERFLOW:
            return self.bins + 1
        self._check_index(index)
        return index + 1

    # -- comparison / serialization --------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Axis):
            return NotImplemented
        # Exact equality.  Copies of a histogram share its axis object.
        return self is other or (
            self.bins == other.bins
            and np.array_equal(self._edges, other._edges)
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.bins, self.lower_edge, self.upper_edge))

    def __repr__(self) -> str:
        if self._fixed:
            return (
                f"Axis(bins={self.bins}, lower={self.lower_edge}, "
                f"upper={self.upper_edge})"
            )
        return f"Axis(edges=<{self.bins + 1} values>)"

    def to_wire(self, array=encode_array) -> dict:
        """The plain dict form, the edges passed through *array*."""
        if self._fixed:
            return {
                "bins": self.bins,
                "lower": self.lower_edge,
                "upper": self.upper_edge,
            }
        return {"edges": array(self._edges)}

    to_dict = to_wire

    @classmethod
    def from_dict(cls, data: dict) -> "Axis":
        """Reconstruct an axis serialized with :meth:`to_dict`."""
        if "edges" in data:
            return cls(edges=decode_array(data["edges"], dtype=float))
        return cls(bins=data["bins"], lower=data["lower"], upper=data["upper"])
