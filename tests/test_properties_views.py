"""Property-based tests: event views equal the copies they replaced.

``ContentStore.events_for`` used to slice every overlapping block through
the validating constructor and concatenate the pieces, even for a range
inside one cached block; that path is kept here as the reference.  The
views must be ``==``-equal to it array for array (dtype included), share
the block's memory where one block suffices, and never be writeable.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataset.events import EventBatch
from repro.engine.base import Analysis
from repro.engine.engine import AnalysisEngine
from repro.services.content import BLOCK_EVENTS, MAX_CACHED_BLOCKS, ContentStore
from tests.test_properties_columnar import BATCH_ARRAYS, batches
from tests.test_shared_blocks import CountingReader

CONTENT = {"kind": "ilc", "seed": 19}
N_BLOCKS = 3

#: One store for every example.
STORE = ContentStore()


def validating_slice(batch, start, stop):
    """``EventBatch.slice`` as it was: through ``EventBatch(...)`` and ``_validate``."""
    p_lo, p_hi = int(batch.offsets[start]), int(batch.offsets[stop])
    return EventBatch(
        batch.event_ids[start:stop],
        batch.process[start:stop],
        batch.weights[start:stop],
        batch.offsets[start:stop + 1] - p_lo,
        batch.pdg[p_lo:p_hi],
        batch.e[p_lo:p_hi],
        batch.px[p_lo:p_hi],
        batch.py[p_lo:p_hi],
        batch.pz[p_lo:p_hi],
    )


def block_of(index):
    """The whole cached block *index*, as a view of every array."""
    return STORE.events_for(CONTENT, index * BLOCK_EVENTS, (index + 1) * BLOCK_EVENTS)


def slice_then_concatenate(start, stop):
    """What ``events_for`` returned before it handed out views."""
    pieces = []
    for index in range(start // BLOCK_EVENTS, (stop - 1) // BLOCK_EVENTS + 1):
        base = index * BLOCK_EVENTS
        lo = max(start, base) - base
        hi = min(stop, base + BLOCK_EVENTS) - base
        pieces.append(validating_slice(block_of(index), lo, hi))
    return EventBatch.concatenate(pieces)


def assert_same_batch(found, expected):
    for name in BATCH_ARRAYS:
        got, want = getattr(found, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert found.offsets[0] == 0


@st.composite
def ranges(draw):
    start = draw(st.integers(min_value=0, max_value=N_BLOCKS * BLOCK_EVENTS))
    stop = draw(st.integers(min_value=start, max_value=N_BLOCKS * BLOCK_EVENTS))
    return start, stop


@given(ranges())
@example((3_000, 3_000))  # empty
@example((3_000, 4_000))  # inside one block
@example((0, BLOCK_EVENTS))  # a whole block, ending on its edge
@example((7_500, 2 * BLOCK_EVENTS))  # two blocks, ending on an edge
@example((9_999, BLOCK_EVENTS + 1))  # one event either side of an edge
@example((9_000, 2 * BLOCK_EVENTS + 500))  # three blocks
@settings(max_examples=60, deadline=None)
def test_events_for_equals_slice_then_concatenate(span):
    start, stop = span
    found = STORE.events_for(CONTENT, start, stop)
    assert len(found) == stop - start
    assert_same_batch(found, slice_then_concatenate(start, stop))
    for name in BATCH_ARRAYS:
        assert not getattr(found, name).flags.writeable, name
    if stop > start and start // BLOCK_EVENTS == (stop - 1) // BLOCK_EVENTS:
        block = block_of(start // BLOCK_EVENTS)
        for name in BATCH_ARRAYS:
            if name == "offsets" and block.offsets[start % BLOCK_EVENTS]:
                continue  # re-based to 0: necessarily an array of its own
            assert np.shares_memory(getattr(found, name), getattr(block, name)), name


def test_lru_keeps_the_block_just_read():
    """One bound for every store in the process, least recently used out."""
    reader = CountingReader()
    stores = [ContentStore(), ContentStore()]
    for store in stores:
        store.register_kind("counted", reader)
    content = {"kind": "counted", "seed": 1}

    def read(index, store=0):
        start = index * BLOCK_EVENTS
        return stores[store].events_for(content, start, start + 10)

    for index in range(MAX_CACHED_BLOCKS):  # fills the cache with these alone
        read(index, store=index % 2)
    assert reader.calls == MAX_CACHED_BLOCKS
    first = read(0, store=1)  # a hit: block 0 is now the newest
    read(MAX_CACHED_BLOCKS)  # evicts block 1, the oldest
    assert reader.calls == MAX_CACHED_BLOCKS + 1
    assert np.shares_memory(read(0).e, first.e)
    assert reader.calls == MAX_CACHED_BLOCKS + 1
    read(1, store=1)  # generated again; evicts block 2
    assert reader.calls == MAX_CACHED_BLOCKS + 2
    for index in range(3, MAX_CACHED_BLOCKS):  # the rest are all still cached
        read(index, store=index % 2)
    assert reader.calls == MAX_CACHED_BLOCKS + 2


@given(batches(), st.data())
@settings(max_examples=200, deadline=None)
def test_trusted_slice_equals_validating_slice(batch, data):
    start = data.draw(st.integers(min_value=0, max_value=len(batch)))
    stop = data.draw(st.integers(min_value=start, max_value=len(batch)))
    view = batch.slice(start, stop)
    assert_same_batch(view, validating_slice(batch, start, stop))
    assert len(view) == stop - start
    assert view.n_particles == int(batch.offsets[stop] - batch.offsets[start])
    # A view of a view, and a view of a frozen batch, stay exact.
    inner = view.slice(0, len(view) // 2)
    assert_same_batch(inner, validating_slice(batch, start, start + len(view) // 2))
    frozen = validating_slice(batch, 0, len(batch)).freeze().slice(start, stop)
    assert_same_batch(frozen, view)
    assert not any(getattr(frozen, name).flags.writeable for name in BATCH_ARRAYS)


class _Nothing(Analysis):
    name = "nothing"

    def start(self, tree):
        pass

    def process_batch(self, batch, tree):
        pass


@given(
    first=st.integers(min_value=0, max_value=1_200),
    takeovers=st.lists(st.integers(min_value=0, max_value=700), max_size=2),
    chunks=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=100, deadline=None)
def test_engine_counts_are_frozen_by_release(first, takeovers, chunks):
    engine = AnalysisEngine("engine-0@w0", chunk_events=250)
    engine.load_analysis(_Nothing())
    engine.load_data(STORE.events_for(CONTENT, 0, first))
    engine.controller.run()
    pending = [
        STORE.events_for(CONTENT, 5_000 + 1_000 * i, 5_000 + 1_000 * i + n)
        for i, n in enumerate(takeovers)
    ]
    for _ in range(chunks):
        if engine.process_chunk().done and pending:
            engine.load_additional_data(pending.pop(0))
    before = (engine.cursor, engine.total_events)
    engine.release_data()
    assert (engine.cursor, engine.total_events) == before
    assert engine._data is None
    engine.release_data()  # idempotent
    assert (engine.cursor, engine.total_events) == before
