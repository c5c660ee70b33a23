"""A staged part that spans blocks is a chain of block views, not a copy.

``ContentStore.events_for`` answers a range across generation blocks with
an :class:`EventChain` of one view per cached block.  An engine stages it
like a batch (``len`` and ``slice``): a chunk inside one block is a view of
that block, a chunk across a block edge joins only the pieces it straddles,
so staging and running a part copies at most one chunk at a time.  Chunk
bounds stay relative to the part start, so the tree is the one the
concatenated range gives, bit for bit.
"""

import gc
import tracemalloc
import weakref

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import higgs
from repro.dataset.events import EventBatch, EventChain
from repro.engine.base import Analysis
from repro.engine.engine import AnalysisEngine
from repro.engine.runner import run_local
from repro.engine.sandbox import CodeBundle
from repro.services import content as content_module
from repro.services.content import BLOCK_EVENTS, ContentStore
from tests.test_properties_columnar import BATCH_ARRAYS
from tests.test_properties_views import CONTENT, N_BLOCKS, STORE, slice_then_concatenate

CHUNK = 500


class _Chunks(Analysis):
    """Notes, per chunk, its first event, its size and whether it is a view."""

    name = "chunks"

    def __init__(self, blocks):
        self.blocks = blocks
        self.seen = []

    def process_batch(self, batch, tree):
        first, last = (int(batch.event_ids[i]) // BLOCK_EVENTS for i in (0, -1))
        block = self.blocks[first]
        shared = first == last and all(
            np.shares_memory(getattr(batch, name), getattr(block, name))
            for name in BATCH_ARRAYS
            if name != "offsets"  # re-based to 0: an array of its own
        )
        self.seen.append((int(batch.event_ids[0]), len(batch), first == last, shared))


def test_a_part_across_blocks_runs_on_views_of_the_cached_blocks():
    store = ContentStore()
    content = {"kind": "ilc", "seed": 3_019}
    start, stop = BLOCK_EVENTS // 2 + 7, 3 * BLOCK_EVENTS + BLOCK_EVENTS // 2
    blocks = [
        store.events_for(content, index * BLOCK_EVENTS, (index + 1) * BLOCK_EVENTS)
        for index in range(4)
    ]
    analysis = _Chunks(blocks)
    engine = AnalysisEngine("engine-0@w0", chunk_events=CHUNK)
    engine.load_analysis(analysis)

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        part = store.events_for(content, start, stop)
        engine.load_data(part)
        engine.run_to_completion()
        grown = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()

    assert isinstance(part, EventChain) and len(part.pieces) == 4
    assert engine.done and engine.cursor == stop - start
    # The concatenated part alone would be about 3 of the 1.42 MB blocks.
    assert grown < 1 << 20, grown
    assert [first for first, *_ in analysis.seen] == list(range(start, stop, CHUNK))
    assert sum(size for _, size, *_ in analysis.seen) == stop - start
    inside = [shared for _, _, one_block, shared in analysis.seen if one_block]
    seams = [size for _, size, one_block, _ in analysis.seen if not one_block]
    assert inside and all(inside)
    assert len(seams) == 3 and all(size <= CHUNK for size in seams)


def test_a_seam_slice_joins_only_the_pieces_it_straddles():
    chain = STORE.events_for(CONTENT, 9_000, 2 * BLOCK_EVENTS + 500)
    assert [len(piece) for piece in chain.pieces] == [1_000, BLOCK_EVENTS, 500]
    inside = chain.slice(1_200, 1_700)
    assert np.shares_memory(inside.e, chain.pieces[1].e)
    across = chain.slice(800, 11_100)  # the tail of one piece to the head of the last
    expected = slice_then_concatenate(9_800, 2 * BLOCK_EVENTS + 100)
    for name in BATCH_ARRAYS:
        assert np.array_equal(getattr(across, name), getattr(expected, name)), name
        assert not getattr(across, name).flags.writeable, name
    assert len(chain.slice(len(chain), len(chain))) == 0


@given(
    start=st.integers(min_value=0, max_value=N_BLOCKS * BLOCK_EVENTS),
    length=st.integers(min_value=0, max_value=N_BLOCKS * BLOCK_EVENTS),
    chunk_events=st.integers(min_value=1, max_value=4_000),
)
@example(start=9_999, length=2, chunk_events=1)  # one event either side of an edge
@example(start=7_500, length=12_500, chunk_events=2_500)  # chunks ending on the edge
@example(start=9_000, length=11_500, chunk_events=3_000)  # three blocks, two seams
@settings(max_examples=25, deadline=None)
def test_the_tree_over_a_chain_equals_the_tree_over_its_concatenation(start, length, chunk_events):
    stop = min(start + length, N_BLOCKS * BLOCK_EVENTS)
    chunk_events = max(chunk_events, (stop - start) // 40)  # at most ~40 chunks an example
    bundle = CodeBundle(higgs.SOURCE)
    chained = run_local(bundle, STORE.events_for(CONTENT, start, stop), chunk_events)
    joined = run_local(bundle, slice_then_concatenate(start, stop), chunk_events)
    assert chained.to_dict() == joined.to_dict()


# -- per-event sums, once per block ------------------------------------------------


def _bits(values):
    return values.tobytes()


def test_per_event_sums_of_a_block_view_come_from_the_block_and_equal_the_reduction():
    store = ContentStore()
    recipe = {"kind": "ilc", "seed": 3_131}  # read by no other test: a cold block
    part = store.events_for(recipe, 2_000, BLOCK_EVENTS + 3_000)
    block = part.pieces[0]._origin[0]
    chunks = {
        "inside a block": part.slice(1_000, 1_500),
        "across the seam": part.slice(7_800, 8_300),
        "of the next block": part.slice(8_500, 9_000),
    }
    for where, chunk in chunks.items():
        reference = chunk._per_event_reduce(chunk.e, np.add)
        assert _bits(chunk.per_event_sum(chunk.e)) == _bits(reference), where
    assert set(block._sums) == {"e"} and len(block._sums["e"]) == BLOCK_EVENTS
    # Not a column: the chunk's own reduction.
    chunk = chunks["inside a block"]
    shifted = chunk.e + 0.0
    assert _bits(chunk.per_event_sum(shifted)) == _bits(
        chunk._per_event_reduce(shifted, np.add)
    )
    # A copy per call: editing one answer does not reach the next.
    first = chunk.per_event_sum(chunk.e)
    expected = first.copy()
    first[:] = -1.0
    assert _bits(chunk.per_event_sum(chunk.e)) == _bits(expected)
    assert not np.shares_memory(first, block._sums["e"])


def test_a_writeable_batch_keeps_its_own_reduction():
    frozen = ContentStore().events_for({"kind": "ilc", "seed": 3_137}, 0, 2_000)
    arrays = [getattr(frozen, name).copy() for name in BATCH_ARRAYS]
    writeable = EventBatch(*arrays)
    chunk = writeable.slice(700, 1_300)
    assert _bits(chunk.per_event_sum(chunk.e)) == _bits(
        chunk._per_event_reduce(chunk.e, np.add)
    )
    assert writeable._sums == {}
    writeable.e[:] += 1.0  # a writeable batch may change under its views
    assert _bits(chunk.per_event_sum(chunk.e)) == _bits(
        chunk._per_event_reduce(chunk.e, np.add)
    )


def test_block_sums_die_with_their_block():
    part = ContentStore().events_for({"kind": "ilc", "seed": 3_139}, 100, 600)
    part.per_event_sum(part.e)
    block = weakref.ref(part._origin[0])
    assert "e" in block()._sums
    del part
    content_module._block.cache_clear()
    gc.collect()
    assert block() is None
