"""Property-based tests: the columnar kernels equal the loops they replaced.

``EventBatch.per_event_sum`` (and the segmented reduction under it, for
any ufunc) and the vectorized ``_permute_batch`` must be ``==``-equal (not
``allclose``) to the per-event Python loops, which are kept here as the reference: merged
trees are pinned bit for bit, and one ulp in a visible-energy sum is
enough to move a pinned digest.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataset import generator
from repro.dataset.events import EventBatch
from repro.dataset.generator import ILCEventGenerator, _permute_batch

BATCH_ARRAYS = (
    "event_ids", "process", "weights", "offsets", "pdg", "e", "px", "py", "pz"
)

#: Zero, negative, tiny and huge magnitudes side by side make the order of
#: additions visible in the last bit.
values = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.floats(min_value=-1e-6, max_value=1e-6, allow_nan=False),
)

#: Multiplicities 0-12 span the left-to-right range (k < 8), numpy's
#: pairwise range (k >= 8) and empty events in any position.
multiplicities = st.lists(
    st.integers(min_value=0, max_value=12), min_size=0, max_size=30
)


@st.composite
def batches(draw):
    counts = draw(multiplicities)
    n_particles = sum(counts)
    energy = draw(st.lists(values, min_size=n_particles, max_size=n_particles))
    return EventBatch(
        np.arange(len(counts)),
        np.zeros(len(counts)),
        np.ones(len(counts)),
        np.concatenate([[0], np.cumsum(counts)]),
        np.full(n_particles, 81),
        energy,
        np.arange(n_particles, dtype=float),
        np.zeros(n_particles),
        np.zeros(n_particles),
    )


@st.composite
def batch_views(draw):
    """A batch or an arbitrary ``slice(a, b)`` view of one."""
    batch = draw(batches())
    start = draw(st.integers(min_value=0, max_value=len(batch)))
    stop = draw(st.integers(min_value=start, max_value=len(batch)))
    return batch.slice(start, stop)


def with_nan():
    """Multiplicities 9, 0, 3 and 12 (both reduction orders), NaNs in the 9 and the 3."""
    counts = [9, 0, 3, 12]
    energy = np.linspace(-2.5, 7.0, sum(counts))
    energy[[4, 10]] = np.nan
    return EventBatch(
        np.arange(4), np.zeros(4), np.ones(4), np.concatenate([[0], np.cumsum(counts)]),
        np.full(len(energy), 81), energy, np.zeros(len(energy)),
        np.zeros(len(energy)), np.zeros(len(energy)),
    )


def loop_sum(batch, array):
    return np.array(
        [array[batch.offsets[i]:batch.offsets[i + 1]].sum() for i in range(len(batch))]
    )


def loop_max(batch, array):
    return np.array(
        [
            array[batch.offsets[i]:batch.offsets[i + 1]].max()
            if batch.offsets[i + 1] > batch.offsets[i]
            else 0.0
            for i in range(len(batch))
        ]
    )


@given(batch_views())
@example(with_nan())
@settings(max_examples=300, deadline=None)
def test_per_event_sum_equals_slice_loop(batch):
    result = batch.per_event_sum(batch.e)
    assert result.dtype == np.float64
    assert result.shape == (len(batch),)
    assert np.array_equal(result, loop_sum(batch, batch.e), equal_nan=True)


@given(batch_views())
@example(with_nan())
@settings(max_examples=300, deadline=None)
def test_per_event_max_equals_slice_loop(batch):
    result = batch._per_event_reduce(batch.e, np.maximum)
    assert result.shape == (len(batch),)
    assert np.array_equal(result, loop_max(batch, batch.e), equal_nan=True)


def test_all_empty_events_reduce_to_zero():
    batch = EventBatch.from_events([(i, 0, 1.0, []) for i in range(5)])
    assert batch.per_event_sum(batch.e).tolist() == [0.0] * 5
    assert batch._per_event_reduce(batch.e, np.maximum).tolist() == [0.0] * 5
    empty = EventBatch.empty()
    assert empty.per_event_sum(empty.e).shape == (0,)


def test_reduction_rejects_array_of_wrong_length():
    batch = ILCEventGenerator(seed=1).generate(10)
    with pytest.raises(ValueError):
        batch.per_event_sum(batch.e[:-1])
    with pytest.raises(ValueError):
        batch._per_event_reduce(batch.weights, np.maximum)


def test_per_event_sum_exact_on_generated_events():
    """The case the pinned trees depend on: ``reduceat`` differs here."""
    batch = ILCEventGenerator(seed=3).generate(40000)
    reference = loop_sum(batch, batch.e)
    assert np.array_equal(batch.per_event_sum(batch.e), reference)
    assert (np.add.reduceat(batch.e, batch.offsets[:-1]) != reference).any()


# ---------------------------------------------------------------------------
# _permute_batch
# ---------------------------------------------------------------------------

def loop_permute_batch(batch, perm):
    """The per-event gather loop ``_permute_batch`` used to run."""
    counts = np.diff(batch.offsets)
    new_counts = counts[perm]
    new_offsets = np.concatenate([[0], np.cumsum(new_counts)])
    n_particles = int(batch.offsets[-1])
    gather = np.empty(n_particles, dtype=np.int64)
    position = 0
    for src in perm:
        lo, hi = int(batch.offsets[src]), int(batch.offsets[src + 1])
        gather[position:position + (hi - lo)] = np.arange(lo, hi)
        position += hi - lo
    return EventBatch(
        batch.event_ids[perm],
        batch.process[perm],
        batch.weights[perm],
        new_offsets,
        batch.pdg[gather],
        batch.e[gather],
        batch.px[gather],
        batch.py[gather],
        batch.pz[gather],
    )


def assert_batches_identical(a, b):
    for name in BATCH_ARRAYS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_permute_batch_equals_gather_loop(data):
    batch = data.draw(batches())
    perm = np.array(data.draw(st.permutations(range(len(batch)))), dtype=np.int64)
    assert_batches_identical(
        _permute_batch(batch, perm), loop_permute_batch(batch, perm)
    )


@pytest.mark.parametrize("seed", [0, 3, 202])
def test_generator_output_unchanged_by_vectorized_permute(seed, monkeypatch):
    vectorized = ILCEventGenerator(seed=seed).generate(5000)
    monkeypatch.setattr(generator, "_permute_batch", loop_permute_batch)
    looped = ILCEventGenerator(seed=seed).generate(5000)
    assert_batches_identical(vectorized, looped)
