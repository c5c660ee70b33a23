"""Unit tests for Profile1D."""

import numpy as np
import pytest

from repro.aida.profile import Profile1D


# ---------------------------------------------------------------------------
# Profile1D
# ---------------------------------------------------------------------------

def make_profile():
    return Profile1D("p", "profile", bins=10, lower=0.0, upper=10.0)


def test_profile_name_required():
    with pytest.raises(ValueError):
        Profile1D("", bins=2, lower=0, upper=1)


def test_profile_bin_mean_and_spread():
    prof = make_profile()
    prof.fill(2.5, 1.0)
    prof.fill(2.6, 3.0)
    assert prof.bin_entries(2) == 2
    assert prof.bin_height(2) == pytest.approx(2.0)
    assert prof.bin_spread(2) == pytest.approx(1.0)
    assert prof.bin_error(2) == pytest.approx(1.0 / np.sqrt(2))


def test_profile_empty_bin_nan():
    prof = make_profile()
    assert np.isnan(prof.bin_height(0))
    assert np.isnan(prof.bin_spread(0))
    assert np.isnan(prof.bin_error(0))


def test_profile_weighted_mean():
    prof = make_profile()
    prof.fill(5.0, 1.0, weight=1.0)
    prof.fill(5.0, 4.0, weight=3.0)
    assert prof.bin_height(5) == pytest.approx((1 + 12) / 4)


def test_profile_fill_array_equivalent():
    rng = np.random.default_rng(13)
    xs = rng.uniform(-1, 11, 400)
    ys = rng.normal(0, 1, 400)
    ws = rng.uniform(0.5, 2, 400)
    vec = make_profile()
    scalar = make_profile()
    vec.fill_array(xs, ys, ws)
    for x, y, w in zip(xs, ys, ws):
        scalar.fill(x, y, w)
    assert np.array_equal(vec._counts, scalar._counts)
    assert np.allclose(vec._sumwy, scalar._sumwy)


def test_profile_fill_array_validation():
    prof = make_profile()
    before = (prof.data_version, prof.to_dict())
    with pytest.raises(ValueError):
        prof.fill_array([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        prof.fill_array([1.0], [1.0], weights=[1.0, 2.0])
    assert (prof.data_version, prof.to_dict()) == before


def test_profile_merge_matches_combined():
    a = make_profile()
    b = make_profile()
    combined = make_profile()
    for x, y in [(1.0, 2.0), (1.2, 4.0)]:
        a.fill(x, y)
        combined.fill(x, y)
    for x, y in [(1.1, 6.0), (8.0, 1.0)]:
        b.fill(x, y)
        combined.fill(x, y)
    merged = a + b
    assert merged.bin_height(1) == pytest.approx(combined.bin_height(1))
    assert merged.bin_spread(1) == pytest.approx(combined.bin_spread(1))
    assert merged.entries == combined.entries


def test_profile_merge_incompatible():
    a = make_profile()
    b = Profile1D("p", bins=3, lower=0, upper=1)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(TypeError):
        a += 1


def test_profile_heights_nan_for_empty():
    prof = make_profile()
    prof.fill(0.5, 2.0)
    heights = prof.heights()
    assert heights[0] == pytest.approx(2.0)
    assert np.isnan(heights[1])


def test_profile_reset_copy_serialization():
    prof = make_profile()
    prof.fill(3.0, 7.0)
    clone = prof.copy()
    restored = Profile1D.from_dict(prof.to_dict())
    prof.reset()
    assert prof.entries == 0
    assert clone.bin_height(3) == pytest.approx(7.0)
    assert restored.bin_height(3) == pytest.approx(7.0)
