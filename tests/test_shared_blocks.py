"""One block cache per process: every store serves the same frozen block.

A block is a pure function of ``(reader, recipe, block)`` and is frozen
before it is cached, so each site's store, each federation member's and a
bare ``ContentStore`` read one copy of it; only a different reader for the
same kind name gets blocks of its own.  The bound and the eviction order
are pinned in ``tests/test_properties_views.py``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.site import GridSite, SiteConfig
from repro.dataset.events import EventBatch
from repro.dataset.generator import ILCEventGenerator
from repro.federation import Federation
from repro.services.content import BLOCK_EVENTS, ContentStore
from tests.test_properties_columnar import BATCH_ARRAYS


class CountingReader:
    """A content reader that counts the blocks it generates."""

    def __init__(self, scale=1.0):
        self.scale = scale
        self.calls = 0

    def __call__(self, content, block_seed, n_events):
        self.calls += 1
        energy = self.scale * np.random.default_rng(block_seed).random(n_events)
        return EventBatch(
            event_ids=np.arange(n_events),
            process=np.zeros(n_events, dtype=np.int16),
            weights=np.ones(n_events),
            offsets=np.arange(n_events + 1, dtype=np.int64),
            pdg=np.full(n_events, 81, dtype=np.int32),
            e=energy,
            px=np.zeros(n_events),
            py=np.zeros(n_events),
            pz=np.zeros(n_events),
        )


def assert_same_block(found, expected):
    for name in BATCH_ARRAYS:
        assert np.shares_memory(getattr(found, name), getattr(expected, name)), name


def test_sites_and_a_bare_store_read_one_block():
    sites = [GridSite(SiteConfig(n_workers=1)) for _ in range(2)]
    members = Federation(n_sites=2, site_config=SiteConfig(n_workers=1)).sites
    stores = [site.content_store for site in sites + list(members.values())]
    stores.append(ContentStore())
    content = {"kind": "ilc", "seed": 2_801}  # a recipe no other test reads
    first = stores[0].events_for(content, 0, 500)
    for store in stores[1:]:
        assert_same_block(store.events_for(content, 0, 500), first)

    reader = CountingReader()
    for store in stores:
        store.register_kind("counted", reader)
    counted = {"kind": "counted", "seed": 3}
    for store in stores:
        store.events_for(counted, BLOCK_EVENTS - 5, 3 * BLOCK_EVENTS + 5)
    assert reader.calls == 4  # blocks 0-3, each generated once for five stores


def test_one_kind_name_with_two_readers_never_shares():
    first, second = ContentStore(), ContentStore()
    first.register_kind("twin", CountingReader())
    second.register_kind("twin", CountingReader(scale=2.0))
    content = {"kind": "twin", "seed": 0}
    mine = first.events_for(content, 0, 100)
    theirs = second.events_for(content, 0, 100)
    assert np.array_equal(theirs.e, 2.0 * mine.e)
    assert not np.shares_memory(theirs.e, mine.e)
    assert first.events_for(content, 0, 100).e.tolist() == mine.e.tolist()


def test_a_block_served_to_a_second_store_is_read_only():
    reader = CountingReader()
    first, second = ContentStore(), ContentStore()
    for store in (first, second):
        store.register_kind("counted", reader)
    content = {"kind": "counted", "seed": 9}
    mine = first.events_for(content, 0, 100)
    pristine = mine.e.copy()
    theirs = second.events_for(content, 0, 100)
    assert reader.calls == 1
    assert_same_block(theirs, mine)
    for name in BATCH_ARRAYS:
        assert not getattr(theirs, name).flags.writeable, name
    with pytest.raises(ValueError, match="read-only"):
        theirs.e[0] = -1.0
    with pytest.raises(ValueError, match="read-only"):
        theirs.e *= 2.0
    assert np.array_equal(first.events_for(content, 0, 100).e, pristine)


def test_a_cached_block_shares_its_constant_columns():
    store = ContentStore()
    content = {"kind": "ilc", "seed": 2_802}  # a recipe no other test reads
    block = store.events_for(content, 0, BLOCK_EVENTS)
    part = store.events_for(content, 1_234, 5_678)
    for batch in (block, part, part.slice(10, 20)):
        for name in ("pdg", "weights"):
            column = getattr(batch, name)
            assert column.strides == (0,), name
            assert not column.flags.writeable, name
    assert (part.pdg == 81).all() and (part.weights == 1.0).all()


def test_a_block_holds_only_the_bytes_that_differ_per_event():
    block = ContentStore().events_for({"kind": "ilc", "seed": 2_803}, 0, BLOCK_EVENTS)
    # Four-momenta, offsets, ids and process codes; pdg and weights are one value each.
    per_event = block.event_ids.nbytes + block.process.nbytes + block.offsets.nbytes
    assert block.nbytes == per_event + 4 * block.e.nbytes + 4 + 8
    assert block.nbytes <= 1.25 * 2**20


def test_generating_a_block_peaks_near_its_own_size():
    generator = ILCEventGenerator(seed=2_804)
    tracemalloc.start()
    try:
        block = generator.generate(BLOCK_EVENTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The block plus one process's jets: no per-process batch, join or copy.
    assert peak <= 2.2 * block.nbytes
