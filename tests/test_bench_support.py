"""Unit tests for the benchmark support package."""

import numpy as np
import pytest

from repro.bench.model import (
    PaperModel,
    fit_grid_model,
    fit_local_model,
    grid_time,
    local_time,
)
from repro.bench.surface import compute_surfaces
from repro.bench.tables import ComparisonTable, format_seconds


# ---------------------------------------------------------------------------
# Paper model
# ---------------------------------------------------------------------------

def test_paper_model_local():
    assert local_time(100.0) == pytest.approx(1150.0)
    assert PaperModel().local(0.0) == 0.0


def test_paper_model_grid_matches_printed_equation():
    model = PaperModel()
    # T_grid(471, 16) = 0.338*471 + 53 + (62 + 5.3*471)/16
    expected = 0.338 * 471 + 53 + (62 + 5.3 * 471) / 16
    assert model.grid(471, 16) == pytest.approx(expected)
    assert grid_time(471, 16) == pytest.approx(expected)


def test_paper_model_grid_vectorized():
    model = PaperModel()
    xs = np.array([10.0, 100.0])
    values = model.grid(xs, 4)
    assert values.shape == (2,)
    assert values[1] > values[0]


def test_paper_conclusion_grid_wins_large_datasets():
    model = PaperModel()
    assert model.grid(471, 16) < model.local(471)
    assert model.grid(1000, 4) < model.local(1000)


def test_paper_conclusion_local_wins_tiny_datasets():
    model = PaperModel()
    assert model.local(1.0) < model.grid(1.0, 16)


def test_crossover_size_bracketed():
    model = PaperModel()
    for n in (1, 2, 4, 16, 64):
        x_star = model.crossover_size(n)
        assert model.local(x_star) == pytest.approx(model.grid(x_star, n), rel=1e-9)
        # Just below: local wins; just above: grid wins.
        assert model.local(x_star * 0.9) < model.grid(x_star * 0.9, n)
        assert model.local(x_star * 1.1) > model.grid(x_star * 1.1, n)


def test_crossover_decreases_with_nodes():
    model = PaperModel()
    values = [model.crossover_size(n) for n in (1, 2, 4, 8, 16)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_crossover_paper_claim_order_10mb():
    """§4: 'for large dataset (> ~10 MB) ... it is much better to use the Grid'."""
    model = PaperModel()
    assert 5 < model.crossover_size(16) < 25


def test_crossover_infinite_when_grid_cannot_win():
    model = PaperModel(local_per_mb=0.1)
    assert model.crossover_size(1) == float("inf")


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------

def test_fit_local_model_recovers_slope():
    xs = np.array([10.0, 50.0, 200.0, 471.0])
    ys = 11.5 * xs
    slope, residual = fit_local_model(xs, ys)
    assert slope == pytest.approx(11.5)
    assert residual == pytest.approx(0.0, abs=1e-9)


def test_fit_local_model_validation():
    with pytest.raises(ValueError):
        fit_local_model([], [])


def test_fit_grid_model_recovers_coefficients():
    model = PaperModel()
    xs, ns, ys = [], [], []
    for x in (10.0, 50.0, 200.0, 471.0, 1000.0):
        for n in (1, 2, 4, 8, 16):
            xs.append(x)
            ns.append(n)
            ys.append(float(model.grid(x, n)))
    fitted, residual = fit_grid_model(xs, ns, ys)
    assert fitted.grid_per_mb == pytest.approx(0.338, rel=1e-6)
    assert fitted.grid_fixed == pytest.approx(53.0, rel=1e-6)
    assert fitted.grid_per_node_fixed == pytest.approx(62.0, rel=1e-4)
    assert fitted.grid_per_node_per_mb == pytest.approx(5.3, rel=1e-6)
    assert residual == pytest.approx(0.0, abs=1e-6)


def test_fit_grid_model_validation():
    with pytest.raises(ValueError):
        fit_grid_model([1, 2], [1, 2], [1])
    with pytest.raises(ValueError):
        fit_grid_model([1, 2, 3], [1, 2, 3], [1, 2, 3])


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

def test_surfaces_from_paper_model():
    result = compute_surfaces(
        sizes_mb=[1, 10, 100, 1000], nodes=[1, 4, 16]
    )
    assert result.local.shape == (4, 3)
    # Local is flat in N.
    assert np.allclose(result.local[:, 0], result.local[:, 2])
    # Grid wins at 1000 MB, 16 nodes; loses at 1 MB, 1 node.
    wins = result.grid_wins()
    assert wins[3, 2]
    assert not wins[0, 0]


def test_surface_crossover_interpolation():
    result = compute_surfaces(
        sizes_mb=np.linspace(1, 100, 100), nodes=[16]
    )
    model = PaperModel()
    assert result.crossover_mb[0] == pytest.approx(
        model.crossover_size(16), rel=0.02
    )


def test_surface_crossover_edge_cases():
    # Grid always wins -> crossover at the smallest size.
    result = compute_surfaces(
        sizes_mb=[10, 100],
        nodes=[4],
        local_fn=lambda x: 1e9,
        grid_fn=lambda x, n: 1.0,
    )
    assert result.crossover_mb[0] == 10.0
    # Grid never wins -> inf.
    result = compute_surfaces(
        sizes_mb=[10, 100],
        nodes=[4],
        local_fn=lambda x: 1.0,
        grid_fn=lambda x, n: 1e9,
    )
    assert result.crossover_mb[0] == float("inf")


def test_surface_validation():
    with pytest.raises(ValueError):
        compute_surfaces([], [1])


def test_surface_ascii_rendering():
    result = compute_surfaces(sizes_mb=[1, 471], nodes=[1, 16])
    text = result.render_ascii()
    assert "G" in text and "L" in text
    assert "471.0" in text


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def test_format_seconds():
    assert format_seconds(None) == "-"
    assert format_seconds(5.5) == "5.5 s"
    assert format_seconds(93) == "93 s"
    assert format_seconds(259) == "4 m 19 s"
    assert format_seconds(2700) == "45 m 00 s"
    assert format_seconds(7200) == "2.00 h"
    assert format_seconds(-93) == "-93 s"


def test_comparison_table_render():
    table = ComparisonTable("Table 1", ["phase", "paper", "ours"])
    table.add_row("analysis", "258 s", "260 s")
    text = table.render()
    assert "Table 1" in text
    assert "analysis" in text
    assert text == str(table)


def test_comparison_table_row_validation():
    table = ComparisonTable("t", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row("only-one")


def test_surface_to_csv():
    result = compute_surfaces(sizes_mb=[10, 100], nodes=[1, 4])
    csv = result.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "size_mb,nodes,local_s,grid_s"
    assert len(lines) == 1 + 4
    size, nodes, local_s, grid_s = lines[1].split(",")
    assert size == "10" and nodes == "1"
    assert float(local_s) == pytest.approx(115.0)
