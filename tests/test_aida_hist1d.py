"""Unit tests for Histogram1D."""

import numpy as np
import pytest

from repro.aida.axis import OVERFLOW, UNDERFLOW, Axis
from repro.aida.hist1d import Histogram1D


def make(bins=10, lower=0.0, upper=10.0):
    return Histogram1D("h", "test hist", bins=bins, lower=lower, upper=upper)


def test_name_required():
    with pytest.raises(ValueError):
        Histogram1D("", bins=2, lower=0, upper=1)


def test_title_defaults_to_name():
    hist = Histogram1D("mass", bins=2, lower=0, upper=1)
    assert hist.title == "mass"


def test_fill_and_bin_accessors():
    hist = make()
    hist.fill(2.5)
    hist.fill(2.7, weight=2.0)
    assert hist.bin_entries(2) == 2
    assert hist.bin_height(2) == pytest.approx(3.0)
    assert hist.bin_error(2) == pytest.approx(np.sqrt(1 + 4))
    assert hist.entries == 2


def test_underflow_overflow():
    hist = make()
    hist.fill(-1.0)
    hist.fill(100.0, weight=3.0)
    assert hist.bin_entries(UNDERFLOW) == 1
    assert hist.bin_entries(OVERFLOW) == 1
    assert hist.underflow_height() == pytest.approx(1.0)
    assert hist.overflow_height() == pytest.approx(3.0)
    assert hist.entries == 0
    assert hist.all_entries == 2
    assert hist.extra_entries == 2


def test_upper_edge_goes_to_overflow():
    hist = make()
    hist.fill(10.0)
    assert hist.bin_entries(OVERFLOW) == 1


def test_mean_and_rms():
    hist = make(bins=100, lower=-10, upper=10)
    values = [1.0, 2.0, 3.0, 4.0]
    for v in values:
        hist.fill(v)
    assert hist.mean == pytest.approx(np.mean(values))
    assert hist.rms == pytest.approx(np.std(values))


def test_mean_weighted():
    hist = make(bins=100, lower=0, upper=10)
    hist.fill(2.0, weight=1.0)
    hist.fill(4.0, weight=3.0)
    assert hist.mean == pytest.approx((2 + 12) / 4)


def test_empty_histogram_stats_nan():
    hist = make()
    assert np.isnan(hist.mean)
    assert np.isnan(hist.rms)
    assert hist.max_bin_height == 0.0


def test_out_of_range_excluded_from_moments():
    hist = make()
    hist.fill(5.0)
    hist.fill(1e6)  # overflow must not disturb the mean
    assert hist.mean == pytest.approx(5.0)


def test_fill_array_equivalent_to_scalar_fills():
    rng = np.random.default_rng(42)
    xs = rng.normal(5, 3, size=1000)
    ws = rng.uniform(0.5, 2.0, size=1000)
    vectorized = make()
    scalar = make()
    vectorized.fill_array(xs, ws)
    for x, w in zip(xs, ws):
        scalar.fill(x, w)
    assert np.array_equal(vectorized._counts, scalar._counts)
    assert np.allclose(vectorized._sumw, scalar._sumw)
    assert np.allclose(vectorized._sumw2, scalar._sumw2)
    assert vectorized.mean == pytest.approx(scalar.mean)
    assert vectorized.rms == pytest.approx(scalar.rms)


def test_fill_array_validation():
    hist = make()
    hist.fill_array([1.0, 2.0])  # proves the unit sums
    before = (hist.data_version, hist._unit_sums, hist.to_dict())
    with pytest.raises(ValueError):
        hist.fill_array(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        hist.fill_array([1.0, 2.0], weights=[1.0])
    # A rejected fill is no mutation: nothing to republish, nothing to re-prove.
    assert (hist.data_version, hist._unit_sums, hist.to_dict()) == before


def test_fill_array_with_nan_goes_to_underflow():
    hist = make()
    hist.fill_array([float("nan"), 5.0])
    assert hist.bin_entries(UNDERFLOW) == 1
    assert hist.entries == 1


def test_heights_and_errors_arrays():
    hist = make(bins=4, lower=0, upper=4)
    hist.fill(0.5, weight=2.0)
    hist.fill(2.5)
    assert np.allclose(hist.heights(), [2, 0, 1, 0])
    assert np.allclose(hist.errors(), [2, 0, 1, 0])


def test_sum_bin_heights():
    hist = make()
    hist.fill(5, weight=2.5)
    hist.fill(-1, weight=7.0)
    assert hist.sum_bin_heights == pytest.approx(2.5)
    assert hist.sum_all_bin_heights == pytest.approx(9.5)


def test_reset():
    hist = make()
    hist.fill(5.0)
    hist.reset()
    assert hist.all_entries == 0
    assert np.isnan(hist.mean)


def test_merge_equals_combined_fill():
    rng = np.random.default_rng(7)
    a_data = rng.normal(5, 2, 500)
    b_data = rng.normal(3, 1, 300)
    a = make()
    b = make()
    combined = make()
    a.fill_array(a_data)
    b.fill_array(b_data)
    combined.fill_array(np.concatenate([a_data, b_data]))
    merged = a + b
    assert np.array_equal(merged._counts, combined._counts)
    assert np.allclose(merged._sumw, combined._sumw)
    assert merged.mean == pytest.approx(combined.mean)
    assert merged.rms == pytest.approx(combined.rms)


def test_merge_does_not_modify_operands():
    a = make()
    b = make()
    a.fill(1.0)
    b.fill(2.0)
    _ = a + b
    assert a.entries == 1
    assert b.entries == 1


def test_iadd_modifies_in_place():
    a = make()
    b = make()
    a.fill(1.0)
    b.fill(2.0)
    a += b
    assert a.entries == 2


def test_merge_incompatible_axes_rejected():
    a = make(bins=10)
    b = make(bins=20)
    with pytest.raises(ValueError):
        a + b


def test_merge_wrong_type_rejected():
    a = make()
    with pytest.raises(TypeError):
        a += 42


def test_scale():
    hist = make()
    hist.fill(5.0, weight=2.0)
    hist.scale(3.0)
    assert hist.bin_height(5) == pytest.approx(6.0)
    assert hist.bin_error(5) == pytest.approx(6.0)  # sqrt(4*9)
    assert hist.mean == pytest.approx(5.0)  # scaling preserves the mean
    assert hist.bin_entries(5) == 1  # counts untouched


def test_copy_independent():
    hist = make()
    hist.fill(5.0)
    clone = hist.copy("h2")
    clone.fill(5.0)
    assert hist.entries == 1
    assert clone.entries == 2
    assert clone.name == "h2"


def test_equality():
    a = make()
    b = make()
    a.fill(3.3)
    b.fill(3.3)
    assert a == b
    b.fill(4.4)
    assert a != b
    assert a != "x"


def test_equality_is_bit_exact():
    hist = make()
    hist.fill_array(np.random.default_rng(3).normal(5, 2, 50))
    moment = hist.copy()
    assert moment == hist
    moment._swx = np.nextafter(moment._swx, np.inf)
    assert moment != hist
    weight = hist.copy()
    weight._sumw[3] = np.nextafter(weight._sumw[3], np.inf)
    assert weight != hist
    # A NaN weight sum (a NaN weight filled into underflow, which the
    # in-range moments do not see) still equals itself.
    with_nan = make()
    with_nan.fill(-100.0, weight=float("nan"))
    assert with_nan == with_nan.copy()


def test_serialization_roundtrip():
    hist = make()
    hist.fill_array(np.random.default_rng(1).normal(5, 2, 100))
    hist.fill(-5)  # populate underflow
    restored = Histogram1D.from_dict(hist.to_dict())
    assert restored == hist
    assert restored.mean == pytest.approx(hist.mean)


def test_serialization_is_json_compatible():
    import json

    hist = make()
    hist.fill(1.0)
    text = json.dumps(hist.to_dict())
    restored = Histogram1D.from_dict(json.loads(text))
    assert restored == hist


def test_variable_bins_histogram():
    hist = Histogram1D("h", edges=[0.0, 1.0, 10.0, 100.0])
    hist.fill(0.5)
    hist.fill(5.0)
    hist.fill(50.0)
    assert [hist.bin_entries(i) for i in range(3)] == [1, 1, 1]


def test_max_bin_height():
    hist = make(bins=4, lower=0, upper=4)
    hist.fill(0.5, weight=1.0)
    hist.fill(1.5, weight=5.0)
    assert hist.max_bin_height == pytest.approx(5.0)


def test_repr():
    hist = make()
    hist.fill(1)
    assert "entries=1" in repr(hist)


# -- unit-weight fills ----------------------------------------------------------

def reference_unit_fill(hist, xs):
    """``fill_array(xs)`` as three ``np.add.at`` scatters of explicit ones."""
    xs = np.asarray(xs, dtype=float)
    w = np.ones_like(xs)
    slots = hist.axis.coords_to_storage(xs)
    np.add.at(hist._counts, slots, 1)
    np.add.at(hist._sumw, slots, w)
    np.add.at(hist._sumw2, slots, w * w)
    in_range = (slots >= 1) & (slots <= hist.axis.bins)
    xin, win = xs[in_range], w[in_range]
    hist._swx += float(np.dot(win, xin))
    hist._swx2 += float(np.dot(win, xin * xin))


def _weighted():
    # 32 storage slots: to_dict() encodes the arrays, so == compares bits.
    hist = Histogram1D("h", bins=30, lower=-1.5, upper=3.0)
    rng = np.random.default_rng(11)
    hist.fill_array(rng.uniform(-2, 4, 300), rng.uniform(0.1, 3.0, 300))
    return hist


def _prior(state):
    hist = Histogram1D("h", bins=30, lower=-1.5, upper=3.0)
    if state == "unit_fills":
        hist.fill_array(np.random.default_rng(12).uniform(-2, 4, 400))
    elif state == "weighted_fill":
        hist = _weighted()
    elif state == "scaled":
        hist.fill_array(np.random.default_rng(13).uniform(-2, 4, 400))
        hist.scale(0.1)
    elif state == "merged_weighted":
        hist.fill_array(np.random.default_rng(14).uniform(-2, 4, 400))
        hist += _weighted()
    elif state == "empty_scaled_negative":  # every weight sum is -0.0
        hist.scale(-1.0)
    return hist


def _awkward_values(axis):
    edges = axis.edges
    rng = np.random.default_rng(15)
    values = np.concatenate([
        [np.nan, np.inf, -np.inf],
        edges,
        np.nextafter(edges, -np.inf),
        np.repeat(rng.uniform(-1.4, 2.9, 40), 25),  # many hits per bin
        rng.uniform(-2, 4, 500),
    ])
    return rng.permutation(values)


@pytest.mark.parametrize("state", [
    "fresh", "unit_fills", "weighted_fill", "scaled", "merged_weighted",
    "empty_scaled_negative",
])
def test_a_unit_weight_fill_equals_the_add_at_fill_bit_for_bit(state):
    hist = _prior(state)
    reference = hist.copy()
    xs = _awkward_values(hist.axis)
    inside = xs[(xs >= 0.0) & (xs < 1.0)]
    # A fill that leaves most slots untouched, one that hits all, and one
    # longer than the cached run of unit weights.  Then fills whose
    # overflow slot the NaN scan reads: all in range (also strided), only
    # overflow, only NaN, only infinities, the edges alone, nothing at all.
    for fill in (
        inside, xs, np.tile(xs, 3), np.tile(inside, 12)[::3], np.array([3.0, 1e300]),
        np.array([np.nan]), np.array([np.inf, -np.inf]), hist.axis.edges,
        np.array([]),
    ):
        hist.fill_array(fill)
        reference_unit_fill(reference, fill)
        assert hist.to_dict() == reference.to_dict()
