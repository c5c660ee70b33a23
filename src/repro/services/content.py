"""Deterministic content store: the stand-in for physical dataset files.

The paper's datasets are real LCIO files on SLAC storage.  In the
simulation, a dataset's *content* is a deterministic function of its
catalog recipe (generator kind + seed), materialized on demand for any
event range.  This gives every analysis engine the exact events of "its"
part without shipping real bytes around, while the byte *sizes* still flow
through the staging cost model.

Block-deterministic scheme: events are produced in fixed-size blocks; block
``k`` of dataset seed ``s`` is generated with seed ``f(s, k)``, so
``events_for(range)`` touches only the overlapping blocks — random access
over arbitrarily large virtual datasets stays O(range), not O(dataset).

The store owns the event bytes: generated blocks sit in a small LRU cache,
frozen read-only, and ``events_for`` hands out *views* of them — a range
inside one block costs no copy, however many engines and sessions read it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from repro.dataset.events import EventBatch
from repro.dataset.generator import GeneratorConfig, ILCEventGenerator
from repro.analysis.trading import generate_trading_days

#: Events per deterministic generation block.
BLOCK_EVENTS = 10_000


class ContentError(Exception):
    """Raised for unknown content kinds or bad ranges."""


def _block_seed(seed: int, block: int) -> int:
    # Any injective-enough mixing works; collisions across datasets are
    # irrelevant, only per-dataset determinism matters.
    return (seed * 1_000_003 + block * 7_919 + 12_345) % (2**63)


class ContentStore:
    """Materializes event ranges for catalog entries.

    Content *kinds* are pluggable readers: §2.3 requires that freshly
    started engines "dynamically pickup new data format readers", so new
    kinds can be registered at runtime with :meth:`register_kind` and are
    immediately usable by every engine sharing the store.
    """

    def __init__(self) -> None:
        #: (recipe, block) -> frozen block, least recently used first.
        self._generator_cache: "OrderedDict[tuple, EventBatch]" = OrderedDict()
        self._max_cached_blocks = 8
        # kind -> factory(content, block_seed, n_events) -> EventBatch
        self._readers: Dict[str, object] = {
            "ilc": _ilc_block,
            "trading": _trading_block,
        }

    def register_kind(self, kind: str, factory) -> None:
        """Register a new data-format reader.

        ``factory(content, block_seed, n_events)`` must return an
        :class:`~repro.dataset.events.EventBatch` of exactly *n_events*
        deterministic events for that seed.
        """
        if not kind:
            raise ContentError("kind must be non-empty")
        if kind in self._readers:
            raise ContentError(f"content kind {kind!r} already registered")
        if not callable(factory):
            raise ContentError("factory must be callable")
        self._readers[kind] = factory

    @property
    def kinds(self) -> List[str]:
        """Registered content kinds."""
        return sorted(self._readers)

    def events_for(self, content: dict, start: int, stop: int) -> EventBatch:
        """Events [start, stop) of the dataset described by *content*.

        ``content`` must carry ``kind`` (a registered reader) and ``seed``;
        ``ilc`` additionally honours ``signal_fraction``.

        The batch is read-only.  A range inside one generation block is a
        view of the cached block; a range spanning blocks is concatenated
        once into arrays of its own.
        """
        if start < 0 or stop < start:
            raise ContentError(f"bad event range [{start}, {stop})")
        if start == stop:
            return EventBatch.empty().freeze()
        kind = content.get("kind")
        if kind not in self._readers:
            raise ContentError(f"unknown content kind {kind!r}")
        seed = int(content.get("seed", 0))
        recipe = (kind, seed, tuple(sorted(content.items())))

        pieces: List[EventBatch] = []
        first_block = start // BLOCK_EVENTS
        last_block = (stop - 1) // BLOCK_EVENTS
        for block in range(first_block, last_block + 1):
            block_start = block * BLOCK_EVENTS
            batch = self._block(recipe, content, block)
            lo = max(start, block_start) - block_start
            hi = min(stop, block_start + BLOCK_EVENTS) - block_start
            pieces.append(batch.slice(lo, hi))
        if len(pieces) == 1:
            return pieces[0]
        return EventBatch.concatenate(pieces).freeze()

    def _block(self, recipe: tuple, content: dict, block: int) -> EventBatch:
        kind, seed, _ = recipe
        key = (recipe, block)
        cached = self._generator_cache.get(key)
        if cached is not None:
            self._generator_cache.move_to_end(key)
            return cached
        block_seed = _block_seed(seed, block)
        batch = self._readers[kind](content, block_seed, BLOCK_EVENTS)
        if len(batch) != BLOCK_EVENTS:
            raise ContentError(
                f"reader for kind {kind!r} produced {len(batch)} events, "
                f"expected {BLOCK_EVENTS}"
            )
        batch.event_ids[:] = batch.event_ids + block * BLOCK_EVENTS
        self._generator_cache[key] = batch.freeze()
        if len(self._generator_cache) > self._max_cached_blocks:
            self._generator_cache.popitem(last=False)
        return batch


def _ilc_block(content: dict, block_seed: int, n_events: int) -> EventBatch:
    """Built-in reader: synthetic ILC physics events."""
    config = _ilc_config(content)
    return ILCEventGenerator(config, seed=block_seed).generate(n_events)


def _trading_block(content: dict, block_seed: int, n_events: int) -> EventBatch:
    """Built-in reader: synthetic trading-day records."""
    return generate_trading_days(
        n_events,
        trades_per_day=int(content.get("trades_per_day", 50)),
        seed=block_seed,
    )


def _ilc_config(content: dict) -> GeneratorConfig:
    signal_fraction = content.get("signal_fraction")
    if signal_fraction is None:
        return GeneratorConfig()
    signal = float(signal_fraction)
    if not 0 <= signal <= 1:
        raise ContentError("signal_fraction must be within [0, 1]")
    background = 1.0 - signal
    default = dict(GeneratorConfig().fractions)
    background_total = sum(v for k, v in default.items() if k != "zh")
    fractions = tuple(
        [("zh", signal)]
        + [
            (name, background * value / background_total)
            for name, value in default.items()
            if name != "zh"
        ]
    )
    return GeneratorConfig(fractions=fractions)
