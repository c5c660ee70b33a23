"""Unit tests for histogram fitting and ASCII rendering."""

import numpy as np
import pytest

from repro.aida.fit import (
    FitError,
    fit_histogram,
    gaussian,
    gaussian_plus_linear,
)
from repro.aida.hist1d import Histogram1D
from repro.aida.hist2d import Histogram2D
from repro.aida.profile import Profile1D
from repro.aida.render import (
    render_hist1d,
    render_hist2d,
    render_object,
    render_profile,
)
from repro.aida.serial import from_dict, merge, to_dict


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def gaussian_hist(mean=120.0, sigma=5.0, n=20000, seed=0):
    rng = np.random.default_rng(seed)
    hist = Histogram1D("m", bins=100, lower=mean - 10 * sigma, upper=mean + 10 * sigma)
    hist.fill_array(rng.normal(mean, sigma, n))
    return hist


def test_gaussian_fit_recovers_parameters():
    hist = gaussian_hist()
    result = fit_histogram(hist, "gaussian")
    assert result.parameters["mean"] == pytest.approx(120.0, abs=0.2)
    assert abs(result.parameters["sigma"]) == pytest.approx(5.0, abs=0.2)
    assert result.ndf == 100 - 3
    assert result.chi2_per_ndf < 3.0
    assert result.errors["mean"] > 0


def test_gaussian_plus_linear_fit():
    rng = np.random.default_rng(1)
    hist = Histogram1D("m", bins=60, lower=60, upper=180)
    hist.fill_array(rng.normal(120, 5, 5000))        # signal
    hist.fill_array(rng.uniform(60, 180, 20000))     # flat background
    result = fit_histogram(hist, "gaussian+linear")
    assert result.parameters["mean"] == pytest.approx(120.0, abs=1.0)


def test_fit_range_restricts_bins():
    hist = gaussian_hist()
    result = fit_histogram(hist, "gaussian", fit_range=(100, 140))
    assert result.ndf < 97
    assert result.parameters["mean"] == pytest.approx(120.0, abs=0.5)


def test_fit_with_explicit_seed():
    hist = gaussian_hist()
    result = fit_histogram(hist, "gaussian", seed=(100.0, 119.0, 4.0))
    assert result.parameters["mean"] == pytest.approx(120.0, abs=0.3)


def test_fit_unknown_shape_rejected():
    with pytest.raises(FitError):
        fit_histogram(gaussian_hist(), "lorentzian")


def test_fit_too_few_bins_rejected():
    hist = Histogram1D("h", bins=2, lower=0, upper=1)
    with pytest.raises(FitError, match="constrain"):
        fit_histogram(hist, "gaussian")


def test_linear_fit():
    hist = Histogram1D("h", bins=20, lower=0, upper=10)
    for i in range(20):
        center = hist.axis.bin_center(i)
        hist.fill(center, weight=2.0 + 3.0 * center)
    result = fit_histogram(hist, "linear")
    assert result.parameters["intercept"] == pytest.approx(2.0, abs=0.2)
    assert result.parameters["gradient"] == pytest.approx(3.0, abs=0.1)


def test_exponential_fit():
    hist = Histogram1D("h", bins=30, lower=0, upper=3)
    for i in range(30):
        center = hist.axis.bin_center(i)
        hist.fill(center, weight=100 * np.exp(-1.5 * center))
    result = fit_histogram(hist, "exponential")
    assert result.parameters["slope"] == pytest.approx(-1.5, abs=0.05)


def test_quadratic_fit():
    hist = Histogram1D("h", bins=30, lower=-3, upper=3)
    for i in range(30):
        c = hist.axis.bin_center(i)
        hist.fill(c, weight=1 + 2 * c + 0.5 * c * c + 10)
    result = fit_histogram(hist, "quadratic")
    assert result.parameters["c2"] == pytest.approx(0.5, abs=0.05)


def test_fit_result_callable():
    hist = gaussian_hist()
    result = fit_histogram(hist, "gaussian")
    peak_value = result(result.parameters["mean"])
    off_peak = result(result.parameters["mean"] + 20)
    assert peak_value > off_peak


def test_fit_shapes_evaluate():
    assert gaussian(0.0, 1.0, 0.0, 1.0) == pytest.approx(1.0)
    assert gaussian_plus_linear(0.0, 1.0, 0.0, 1.0, 2.0, 0.0) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def test_render_hist1d_shape():
    hist = gaussian_hist(n=5000)
    text = render_hist1d(hist, width=40, height=8)
    lines = text.splitlines()
    assert lines[0] == hist.title
    assert len(lines) == 1 + 8 + 2 + 1  # title + rows + axis + label + stats
    assert "entries=5000" in lines[-1]
    # Peak column should be filled at the top row somewhere.
    assert "█" in lines[1]


def test_render_hist1d_validation():
    hist = gaussian_hist(n=10)
    with pytest.raises(ValueError):
        render_hist1d(hist, width=2)
    with pytest.raises(ValueError):
        render_hist1d(hist, height=1)


def test_render_hist1d_empty():
    hist = Histogram1D("h", bins=10, lower=0, upper=1)
    text = render_hist1d(hist)
    assert "entries=0" in text


def test_render_hist1d_without_stats():
    hist = gaussian_hist(n=100)
    text = render_hist1d(hist, show_stats=False)
    assert "entries" not in text


def test_render_hist2d():
    hist = Histogram2D(
        "h2", x_bins=20, x_lower=0, x_upper=1, y_bins=20, y_lower=0, y_upper=1
    )
    rng = np.random.default_rng(2)
    hist.fill_array(rng.uniform(0, 1, 500), rng.uniform(0, 1, 500))
    text = render_hist2d(hist)
    assert "entries=500" in text
    assert text.startswith("h2")


def test_render_profile():
    prof = Profile1D("p", bins=10, lower=0, upper=10)
    for x in np.linspace(0.5, 9.5, 10):
        prof.fill(x, x * 2)
    text = render_profile(prof)
    assert "entries=10" in text


def test_render_profile_empty():
    prof = Profile1D("p", bins=5, lower=0, upper=1)
    assert "empty" in render_profile(prof)


def test_render_object_dispatch():
    hist = gaussian_hist(n=10)
    assert render_object(hist).startswith(hist.title)
    prof = Profile1D("p", bins=5, lower=0, upper=1)
    assert "p" in render_object(prof)
    plain = object()
    assert render_object(plain) == repr(plain)  # fallback path


# ---------------------------------------------------------------------------
# serial helpers
# ---------------------------------------------------------------------------

def test_serial_roundtrip_dispatch():
    hist = gaussian_hist(n=50)
    restored = from_dict(to_dict(hist))
    assert restored == hist


def test_serial_unknown_kind():
    with pytest.raises(TypeError):
        from_dict({"kind": "Mystery"})
    with pytest.raises(TypeError):
        to_dict(object())


def test_serial_merge_dispatch():
    a = gaussian_hist(n=10, seed=1)
    b = gaussian_hist(n=20, seed=2)
    merged = merge(a, b)
    assert merged.entries == a.entries + b.entries


def test_serial_merge_kind_mismatch():
    with pytest.raises(TypeError):
        merge(gaussian_hist(n=1), Profile1D("p", bins=5, lower=0, upper=1))
