"""Batched event model: particles with four-momenta plus process labels.

Events are stored in **batches** — flat numpy arrays with per-event offsets
— so the analysis hot path (invariant masses over thousands of events)
stays vectorized: the paper's "the analysis code accepts the records from
the dataset" contract (§3.5) hands user code a chunk of records as one
batch.  An :class:`EventChain` reads several batches end to end as one
without joining them: a staged part that spans generation blocks is the
chain of its block views.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

#: Ground-truth physics process codes carried by each event.
PROCESS_CODES: Dict[str, int] = {
    "zh": 0,       # e+e- -> Z H   (signal)
    "ww": 1,       # e+e- -> W+W-  (background)
    "zz": 2,       # e+e- -> Z Z   (background)
    "qq": 3,       # e+e- -> q qbar (background)
}
#: Inverse mapping of :data:`PROCESS_CODES`.
PROCESS_NAMES: Dict[int, str] = {v: k for k, v in PROCESS_CODES.items()}

#: Slice length from which numpy's ``add.reduce`` stops adding left to right
#: and switches to unrolled pairwise summation (``PW_BLOCKSIZE`` logic in
#: numpy's ``pairwise_sum``).
_PAIRWISE_BLOCK = 8


#: The nine arrays of an :class:`EventBatch`, in constructor order.
_ARRAYS = ("event_ids", "process", "weights", "offsets", "pdg", "e", "px", "py", "pz")


class EventBatch:
    """A contiguous block of events stored as flat arrays.

    Layout: ``offsets`` has length ``n_events + 1``; particles of event *i*
    occupy slots ``offsets[i]:offsets[i+1]`` of the flat particle arrays.

    A batch may be a read-only *view* of another one (:meth:`slice` shares
    the parent's memory and inherits its writability; :meth:`freeze` makes
    a batch read-only): copy an array before modifying it.
    """

    #: ``(block, first event)`` of a view; ``None`` for a batch of its own.
    _origin = None

    def __init__(
        self,
        event_ids: np.ndarray,
        process: np.ndarray,
        weights: np.ndarray,
        offsets: np.ndarray,
        pdg: np.ndarray,
        e: np.ndarray,
        px: np.ndarray,
        py: np.ndarray,
        pz: np.ndarray,
    ) -> None:
        self.event_ids = np.asarray(event_ids, dtype=np.int64)
        self.process = np.asarray(process, dtype=np.int16)
        self.weights = np.asarray(weights, dtype=np.float64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.pdg = np.asarray(pdg, dtype=np.int32)
        self.e = np.asarray(e, dtype=np.float64)
        self.px = np.asarray(px, dtype=np.float64)
        self.py = np.asarray(py, dtype=np.float64)
        self.pz = np.asarray(pz, dtype=np.float64)
        #: Per-event sums by column, filled by views' :meth:`per_event_sum`.
        self._sums: Dict[str, np.ndarray] = {}
        self._validate()

    def _validate(self) -> None:
        n = len(self.event_ids)
        if not (len(self.process) == len(self.weights) == n):
            raise ValueError("per-event arrays disagree in length")
        if len(self.offsets) != n + 1:
            raise ValueError(f"offsets must have length {n + 1}")
        if n and self.offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        n_particles = int(self.offsets[-1]) if n else 0
        for name in ("pdg", "e", "px", "py", "pz"):
            if len(getattr(self, name)) != n_particles:
                raise ValueError(
                    f"particle array {name!r} has wrong length"
                )

    # -- sizing ------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.event_ids)

    @property
    def n_particles(self) -> int:
        """Total particles across all events."""
        return int(self.offsets[-1]) if len(self) else 0

    @property
    def nbytes(self) -> int:
        """Bytes the payload arrays hold: a zero-stride column holds one value."""
        arrays = [getattr(self, name) for name in _ARRAYS]
        return sum(a.itemsize if a.strides == (0,) else a.nbytes for a in arrays)

    def freeze(self) -> "EventBatch":
        """Make every array read-only (and so every later slice); returns self."""
        for name in _ARRAYS:
            getattr(self, name).flags.writeable = False
        return self

    # -- access ------------------------------------------------------------
    def slice(self, start: int, stop: int) -> "EventBatch":
        """Sub-batch of events [start, stop) with re-based offsets.

        The result is a *view*: apart from ``offsets`` (re-based to 0, so
        a fresh array unless the slice starts at particle 0) its arrays
        share this batch's memory, and all nine are read-only when this
        batch is.  A slice of a valid batch is valid, so nothing is
        re-checked.
        """
        if not 0 <= start <= stop <= len(self):
            raise IndexError(f"bad slice [{start}, {stop}) of {len(self)}")
        p_lo = int(self.offsets[start])
        p_hi = int(self.offsets[stop])
        offsets = self.offsets[start:stop + 1]
        if p_lo:
            offsets = offsets - p_lo
            offsets.flags.writeable = self.offsets.flags.writeable
        view = EventBatch.__new__(EventBatch)
        root, base = self._origin or (self, 0)
        view._origin = (root, base + start)
        view.event_ids = self.event_ids[start:stop]
        view.process = self.process[start:stop]
        view.weights = self.weights[start:stop]
        view.offsets = offsets
        view.pdg = self.pdg[p_lo:p_hi]
        view.e = self.e[p_lo:p_hi]
        view.px = self.px[p_lo:p_hi]
        view.py = self.py[p_lo:p_hi]
        view.pz = self.pz[p_lo:p_hi]
        return view

    # -- segmented reductions -----------------------------------------------
    def per_event_sum(self, values: np.ndarray) -> np.ndarray:
        """Per-event sum of a per-particle array (``0.0`` for empty events).

        Bit-for-bit equal to ``values[offsets[i]:offsets[i + 1]].sum()``
        for every event, so a tree filled from it does not depend on
        whether the analysis looped or called the kernel.  That rules out
        ``np.add.reduceat``, which adds ``v[0] + (v[1] + v[2] + ...)`` and
        differs in the last bit on about a quarter of four-jet events.

        On a read-only view of a block, for one of its particle columns
        (``batch.e``), the block's sums are computed once, in one pass,
        kept on the block, and the view gets a copy of its own run.
        """
        column = next((c for c in ("e", "px", "py", "pz") if values is getattr(self, c)), None)
        root, base = self._origin or (self, 0)
        if column is None or root is self or getattr(root, column).flags.writeable:
            return self._per_event_reduce(values, np.add)
        sums = root._sums.get(column)
        if sums is None:
            sums = root._sums[column] = root._per_event_reduce(getattr(root, column), np.add)
        return sums[base:base + len(self)].copy()

    def _per_event_reduce(self, values: np.ndarray, ufunc: np.ufunc) -> np.ndarray:
        """Reduce *values* within each event, one vector pass per slot.

        Events are grouped by particle count ``k``; a group's ``k`` columns
        are combined left to right, which is the order ``ufunc.reduce``
        uses on a slice shorter than :data:`_PAIRWISE_BLOCK`.  Longer
        slices are summed pairwise by numpy, so those (rare) events are
        reduced one slice at a time to stay exact.
        """
        values = np.asarray(values, dtype=np.float64)
        if len(values) != self.n_particles:
            raise ValueError("values must hold one entry per particle")
        counts = np.diff(self.offsets)
        out = np.zeros(len(self))
        for k in np.flatnonzero(np.bincount(counts)[1:]) + 1:
            where = np.flatnonzero(counts == k)
            first = self.offsets[where]
            if k < _PAIRWISE_BLOCK:
                acc = values[first]
                for slot in range(1, k):
                    acc = ufunc(acc, values[first + slot])
                out[where] = acc
            else:
                out[where] = [ufunc.reduce(values[lo:lo + k]) for lo in first]
        return out

    # -- combination ----------------------------------------------------------
    @staticmethod
    def concatenate(batches: Sequence["EventBatch"]) -> "EventBatch":
        """One read-only batch of *batches* end to end (event order preserved)."""
        chain = EventChain([b for b in batches if len(b)])
        if not chain.pieces:
            return EventBatch.empty()
        return EventBatch(*(getattr(chain, name) for name in _ARRAYS))

    @staticmethod
    def empty() -> "EventBatch":
        """A batch with zero events."""
        z = np.zeros(0)
        return EventBatch(z, z, z, np.zeros(1), z, z, z, z, z)

    @staticmethod
    def from_events(
        records: Sequence[Tuple[int, int, float, Sequence[Tuple[int, float, float, float, float]]]]
    ) -> "EventBatch":
        """Build a batch from per-event particle tuples.

        Each record is ``(event_id, process, weight, particles)`` with
        particles as ``(pdg, e, px, py, pz)`` tuples.  Intended for tests
        and small hand-built datasets; the generator builds arrays directly.
        """
        event_ids, process, weights = [], [], []
        offsets = [0]
        pdg: List[int] = []
        e: List[float] = []
        px: List[float] = []
        py: List[float] = []
        pz: List[float] = []
        for event_id, proc, weight, particles in records:
            event_ids.append(event_id)
            process.append(proc)
            weights.append(weight)
            for p in particles:
                pdg.append(p[0])
                e.append(p[1])
                px.append(p[2])
                py.append(p[3])
                pz.append(p[4])
            offsets.append(len(pdg))
        return EventBatch(
            np.asarray(event_ids),
            np.asarray(process),
            np.asarray(weights),
            np.asarray(offsets),
            np.asarray(pdg),
            np.asarray(e),
            np.asarray(px),
            np.asarray(py),
            np.asarray(pz),
        )

    def __repr__(self) -> str:
        return f"<EventBatch events={len(self)} particles={self.n_particles}>"


class EventChain:
    """Batches read end to end as one, without joining them.

    ``len`` and :meth:`slice` answer as for the :class:`EventBatch` the
    pieces would make, so an engine stages a chain like a batch.  A slice
    inside one piece is a view of it; a slice across a seam joins only the
    straddled pieces.  Reading a whole-run array (``chain.e``) joins that
    one array, read-only, on every read and keeps nothing: the whole-range
    copy is made only where a caller asks for it.
    """

    def __init__(self, pieces: Sequence[EventBatch]) -> None:
        self.pieces = tuple(pieces)
        #: Piece *i* holds the chain's events ``[bounds[i], bounds[i + 1])``.
        self.bounds = list(accumulate((len(piece) for piece in self.pieces), initial=0))

    def __len__(self) -> int:
        return self.bounds[-1]

    def __getattr__(self, name: str) -> np.ndarray:
        # Reached only for names the chain does not hold: the nine arrays.
        if name not in _ARRAYS:
            raise AttributeError(name)
        if name == "offsets":
            bases = accumulate((piece.n_particles for piece in self.pieces), initial=0)
            arrays = [np.zeros(1, dtype=np.int64)]
            arrays += [piece.offsets[1:] + base for piece, base in zip(self.pieces, bases)]
        else:
            arrays = [getattr(piece, name) for piece in self.pieces]
        joined = np.concatenate(arrays)
        joined.flags.writeable = False
        return joined

    def slice(self, start: int, stop: int) -> EventBatch:
        """Events [start, stop): a view inside one piece, else one join."""
        if not 0 <= start <= stop <= len(self):
            raise IndexError(f"bad slice [{start}, {stop}) of {len(self)}")
        bounds = self.bounds
        first = min(bisect_right(bounds, start), len(self.pieces)) - 1
        last = max(first, bisect_left(bounds, stop) - 1)
        views = [
            self.pieces[i].slice(max(start, lo) - lo, min(stop, bounds[i + 1]) - lo)
            for i, lo in zip(range(first, last + 1), bounds[first:])
        ]
        return views[0] if len(views) == 1 else EventBatch.concatenate(views)


#: What an engine stages: one batch, or the chain of a part's block views.
Events = Union[EventBatch, EventChain]
