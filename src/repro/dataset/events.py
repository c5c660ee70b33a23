"""Batched event model: particles with four-momenta plus process labels.

Events are stored in **batches** — flat numpy arrays with per-event offsets
— so the analysis hot path (invariant masses over thousands of events)
stays vectorized, while :class:`Event` offers a convenient per-record view
for user analysis code, matching the paper's "the analysis code accepts the
records from the dataset" contract (§3.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

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


@dataclass(frozen=True)
class Event:
    """A per-record view over one event in a batch.

    Attributes expose the particle content as numpy array slices (no
    copies): ``e``, ``px``, ``py``, ``pz`` and integer ``pdg`` codes; jets
    are labelled pdg=81, leptons by their PDG codes.
    """

    event_id: int
    process: int
    weight: float
    pdg: np.ndarray
    e: np.ndarray
    px: np.ndarray
    py: np.ndarray
    pz: np.ndarray

    @property
    def n_particles(self) -> int:
        """Number of particles in the event."""
        return len(self.pdg)

    @property
    def process_name(self) -> str:
        """Human-readable process label."""
        return PROCESS_NAMES.get(self.process, f"unknown({self.process})")

    def jets(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(e, px, py, pz) of the jet-like particles (pdg == 81)."""
        mask = self.pdg == 81
        return self.e[mask], self.px[mask], self.py[mask], self.pz[mask]

    def total_energy(self) -> float:
        """Scalar sum of particle energies."""
        return float(self.e.sum())


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
        """In-memory footprint of the payload arrays."""
        return sum(getattr(self, name).nbytes for name in _ARRAYS)

    def freeze(self) -> "EventBatch":
        """Make every array read-only (and so every later slice); returns self."""
        for name in _ARRAYS:
            getattr(self, name).flags.writeable = False
        return self

    # -- access ------------------------------------------------------------
    def event(self, index: int) -> Event:
        """Per-record view of event *index* (0-based within the batch)."""
        if not 0 <= index < len(self):
            raise IndexError(f"event index {index} out of range")
        lo, hi = int(self.offsets[index]), int(self.offsets[index + 1])
        return Event(
            event_id=int(self.event_ids[index]),
            process=int(self.process[index]),
            weight=float(self.weights[index]),
            pdg=self.pdg[lo:hi],
            e=self.e[lo:hi],
            px=self.px[lo:hi],
            py=self.py[lo:hi],
            pz=self.pz[lo:hi],
        )

    def __iter__(self) -> Iterator[Event]:
        for index in range(len(self)):
            yield self.event(index)

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
        """
        return self._per_event_reduce(values, np.add)

    def per_event_max(self, values: np.ndarray) -> np.ndarray:
        """Per-event maximum of a per-particle array (``0.0`` for empty events)."""
        return self._per_event_reduce(values, np.maximum)

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
        for k in np.unique(counts[counts > 0]):
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
        """Concatenate batches into one (event order preserved)."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return EventBatch.empty()
        offsets = [np.asarray([0], dtype=np.int64)]
        base = 0
        for batch in batches:
            offsets.append(batch.offsets[1:] + base)
            base += batch.offsets[-1]
        return EventBatch(
            np.concatenate([b.event_ids for b in batches]),
            np.concatenate([b.process for b in batches]),
            np.concatenate([b.weights for b in batches]),
            np.concatenate(offsets),
            np.concatenate([b.pdg for b in batches]),
            np.concatenate([b.e for b in batches]),
            np.concatenate([b.px for b in batches]),
            np.concatenate([b.py for b in batches]),
            np.concatenate([b.pz for b in batches]),
        )

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
