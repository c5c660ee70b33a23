"""Property-based tests (hypothesis) for AIDA merge/serialization invariants.

The IPA architecture is only correct if "fill distributed, then merge"
equals "fill centrally": these properties pin that down for every mergeable
object, along with serialization fidelity and merge algebra laws.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aida.axis import Axis
from repro.aida.hist1d import Histogram1D
from repro.aida.hist2d import Histogram2D
from repro.aida.profile import Profile1D

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
weights = st.floats(min_value=0.001, max_value=100.0, allow_nan=False)
points = st.lists(st.tuples(finite_floats, weights), max_size=60)
xy_points = st.lists(
    st.tuples(finite_floats, finite_floats, weights), max_size=60
)


def fill_hist(data):
    hist = Histogram1D("h", bins=20, lower=-100.0, upper=100.0)
    for x, w in data:
        hist.fill(x, w)
    return hist


@given(points, points)
def test_hist1d_merge_commutative(data_a, data_b):
    a, b = fill_hist(data_a), fill_hist(data_b)
    ab = a + b
    ba = b + a
    assert np.array_equal(ab._counts, ba._counts)
    assert np.allclose(ab._sumw, ba._sumw)
    assert np.isclose(ab._swx, ba._swx)


@given(points, points, points)
def test_hist1d_merge_associative(da, db, dc):
    a, b, c = fill_hist(da), fill_hist(db), fill_hist(dc)
    left = (a + b) + c
    right = a + (b + c)
    assert np.array_equal(left._counts, right._counts)
    assert np.allclose(left._sumw, right._sumw)


@given(points, points)
def test_hist1d_distributed_fill_equals_central(da, db):
    """Fill on two engines then merge == fill everything on one engine."""
    merged = fill_hist(da) + fill_hist(db)
    central = fill_hist(da + db)
    assert np.array_equal(merged._counts, central._counts)
    assert np.allclose(merged._sumw, central._sumw)
    assert np.allclose(merged._sumw2, central._sumw2)
    assert np.isclose(merged._swx, central._swx)
    assert np.isclose(merged._swx2, central._swx2)


@given(points)
def test_hist1d_merge_identity(data):
    """Merging with an empty histogram changes nothing."""
    hist = fill_hist(data)
    empty = Histogram1D("h", bins=20, lower=-100.0, upper=100.0)
    merged = hist + empty
    assert merged == hist.copy()


@given(points)
def test_hist1d_serialization_roundtrip(data):
    hist = fill_hist(data)
    assert Histogram1D.from_dict(hist.to_dict()) == hist


@given(points)
def test_hist1d_entry_conservation(data):
    """Every fill lands in exactly one slot."""
    hist = fill_hist(data)
    assert hist.all_entries == len(data)
    assert hist.sum_all_bin_heights == np.float64(
        sum(w for _, w in data)
    ) or np.isclose(hist.sum_all_bin_heights, sum(w for _, w in data))


@given(points)
def test_hist1d_scale_linearity(data):
    hist = fill_hist(data)
    doubled = hist.copy()
    doubled.scale(2.0)
    assert np.allclose(doubled._sumw, 2 * hist._sumw)
    assert np.allclose(doubled._sumw2, 4 * hist._sumw2)


@given(st.lists(finite_floats, min_size=1, max_size=50))
def test_hist1d_mean_within_data_range(xs):
    hist = Histogram1D("h", bins=50, lower=-2e6, upper=2e6)
    for x in xs:
        hist.fill(x)
    assert min(xs) - 1e-6 <= hist.mean <= max(xs) + 1e-6
    assert hist.rms >= 0


@given(xy_points, xy_points)
def test_hist2d_distributed_fill_equals_central(da, db):
    def fill(data):
        h = Histogram2D(
            "h",
            x_bins=8,
            x_lower=-100.0,
            x_upper=100.0,
            y_bins=8,
            y_lower=-100.0,
            y_upper=100.0,
        )
        for x, y, w in data:
            h.fill(x, y, w)
        return h

    merged = fill(da) + fill(db)
    central = fill(da + db)
    assert np.array_equal(merged._counts, central._counts)
    assert np.allclose(merged._sumw, central._sumw)
    assert np.isclose(merged._swx, central._swx)
    assert np.isclose(merged._swy2, central._swy2)


@given(xy_points, xy_points)
def test_profile_distributed_fill_equals_central(da, db):
    def fill(data):
        p = Profile1D("p", bins=10, lower=-100.0, upper=100.0)
        for x, y, w in data:
            p.fill(x, y, w)
        return p

    merged = fill(da) + fill(db)
    central = fill(da + db)
    assert np.array_equal(merged._counts, central._counts)
    assert np.allclose(merged._sumwy, central._sumwy)
    assert np.allclose(merged._sumwy2, central._sumwy2)


@given(
    st.integers(min_value=1, max_value=64),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
)
def test_axis_roundtrip_and_coverage(bins, lower, width):
    """Every coordinate maps to exactly one storage slot within bounds."""
    axis = Axis(bins=bins, lower=lower, upper=lower + width)
    xs = np.linspace(lower - width, lower + 2 * width, 101)
    slots = axis.coords_to_storage(xs)
    assert np.all((slots >= 0) & (slots <= bins + 1))
    # Edges of each bin map into that bin.
    for i in range(bins):
        if axis.bin_width(i) > 0:
            assert axis.coord_to_index(axis.bin_lower_edge(i)) in (i, i - 1, i + 1)


@given(points)
@settings(max_examples=30)
def test_hist1d_json_roundtrip_via_serial(data):
    import json

    from repro.aida.serial import from_dict, to_dict

    hist = fill_hist(data)
    restored = from_dict(json.loads(json.dumps(to_dict(hist))))
    assert restored == hist
