"""Unit tests for the binned Axis."""

import numpy as np
import pytest

from repro.aida.axis import OVERFLOW, UNDERFLOW, Axis


def test_fixed_axis_properties():
    axis = Axis(bins=10, lower=0.0, upper=100.0)
    assert axis.bins == 10
    assert axis.lower_edge == 0.0
    assert axis.upper_edge == 100.0
    assert axis.fixed_binning
    assert axis.bin_width(0) == pytest.approx(10.0)
    assert axis.bin_center(0) == pytest.approx(5.0)
    assert axis.bin_lower_edge(3) == pytest.approx(30.0)
    assert axis.bin_upper_edge(3) == pytest.approx(40.0)


def test_variable_axis_properties():
    axis = Axis(edges=[0.0, 1.0, 10.0, 100.0])
    assert axis.bins == 3
    assert not axis.fixed_binning
    assert axis.bin_width(1) == pytest.approx(9.0)
    assert axis.bin_center(2) == pytest.approx(55.0)


def test_validation():
    with pytest.raises(ValueError):
        Axis(bins=0, lower=0, upper=1)
    with pytest.raises(ValueError):
        Axis(bins=5, lower=1, upper=1)
    with pytest.raises(ValueError):
        Axis(bins=5, lower=2, upper=1)
    with pytest.raises(ValueError):
        Axis(edges=[0.0])
    with pytest.raises(ValueError):
        Axis(edges=[0.0, 1.0, 1.0])  # not strictly increasing
    with pytest.raises(ValueError):
        Axis()


def test_bin_index_bounds_checked():
    axis = Axis(bins=5, lower=0, upper=5)
    with pytest.raises(IndexError):
        axis.bin_center(5)
    with pytest.raises(IndexError):
        axis.bin_center(-1)


def test_coord_to_index_in_range():
    axis = Axis(bins=10, lower=0.0, upper=10.0)
    assert axis.coord_to_index(0.0) == 0
    assert axis.coord_to_index(0.5) == 0
    assert axis.coord_to_index(5.0) == 5
    assert axis.coord_to_index(9.999) == 9


def test_coord_to_index_out_of_range():
    axis = Axis(bins=10, lower=0.0, upper=10.0)
    assert axis.coord_to_index(-0.001) == UNDERFLOW
    assert axis.coord_to_index(10.0) == OVERFLOW  # upper edge -> overflow
    assert axis.coord_to_index(1e9) == OVERFLOW
    assert axis.coord_to_index(float("nan")) == UNDERFLOW


def test_scalar_and_vector_lookup_agree():
    axis = Axis(bins=37, lower=-3.2, upper=11.7)
    xs = np.concatenate([
        np.linspace(-5, 15, 401),
        axis.edges,  # exactly on every edge
        [float("nan")],
    ])
    vec = axis.coords_to_storage(xs)
    for x, storage in zip(xs, vec):
        assert axis.index_to_storage(axis.coord_to_index(x)) == storage


def test_storage_roundtrip():
    axis = Axis(bins=4, lower=0, upper=4)
    for index in [UNDERFLOW, 0, 1, 2, 3, OVERFLOW]:
        assert axis.storage_to_index(axis.index_to_storage(index)) == index


def test_index_to_storage_checks_range():
    axis = Axis(bins=4, lower=0, upper=4)
    with pytest.raises(IndexError):
        axis.index_to_storage(4)


def test_bin_centers_vector():
    axis = Axis(bins=4, lower=0, upper=8)
    assert np.allclose(axis.bin_centers(), [1, 3, 5, 7])


def test_edges_view_readonly():
    axis = Axis(bins=2, lower=0, upper=2)
    with pytest.raises(ValueError):
        axis.edges[0] = -1


def test_equality():
    a = Axis(bins=10, lower=0, upper=1)
    b = Axis(bins=10, lower=0, upper=1)
    c = Axis(bins=10, lower=0, upper=2)
    d = Axis(edges=np.linspace(0, 1, 11))
    assert a == b
    assert a != c
    assert a == d  # same edges regardless of construction
    assert a != "not an axis"


def test_equality_is_exact_on_finite_and_infinite_edges():
    a = Axis(bins=10, lower=0, upper=1)
    assert a == a
    nudged = np.linspace(0, 1, 11)
    nudged[3] = np.nextafter(nudged[3], 1.0)  # one ulp is not "close enough"
    assert a != Axis(edges=nudged)
    assert a != Axis(bins=11, lower=0, upper=1)
    open_ended = Axis(edges=[-np.inf, 0.0, 1.0, np.inf])
    assert open_ended == Axis(edges=[-np.inf, 0.0, 1.0, np.inf])
    assert open_ended != Axis(edges=[-np.inf, 0.0, 2.0, np.inf])
    assert open_ended != Axis(edges=[-1e308, 0.0, 1.0, np.inf])


def test_serialization_roundtrip_fixed():
    axis = Axis(bins=7, lower=-1.5, upper=2.5)
    assert Axis.from_dict(axis.to_dict()) == axis


def test_serialization_roundtrip_variable():
    axis = Axis(edges=[0.0, 0.5, 2.0, 10.0])
    restored = Axis.from_dict(axis.to_dict())
    assert restored == axis
    assert not restored.fixed_binning


def test_repr():
    assert "bins=3" in repr(Axis(bins=3, lower=0, upper=1))
    assert "edges" in repr(Axis(edges=[0, 1, 2]))
