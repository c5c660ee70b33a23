"""Regression guard: the headline paper numbers, inside the fast test suite.

The benchmarks regenerate the full tables; these tests pin every cell of
Tables 1 and 2 as a simulated-clock literal, so a refactor that moves any
staging or analysis time by a nanosecond fails ``pytest tests/``
immediately.  The band tests beside them say how close those cells are to
the paper's.
"""

import pytest

from repro.core.experiment import run_grid_experiment, run_local_experiment


#: Table 2 as ``bench_table2`` runs it (471 MB, 4 events per MB), seconds:
#: move whole, split, move parts, analysis.
TABLE2 = {
    1: (63.2026051364366, 117.94999999999999, 109.37275091730288, 330.9999999999988),
    2: (63.2026051364366, 118.15, 77.78492233365145, 196.60000000000082),
    4: (63.2026051364366, 118.55000000000001, 61.99100804182572, 123.80000000000052),
    8: (63.2026051364366, 119.35, 54.11081725927997, 90.20000000000041),
    16: (63.2026051364366, 120.94999999999999, 50.15395550463998, 73.40000000000032),
}

#: Table 1 as ``bench_table1`` runs it (471 MB, 16 nodes, 5 events per MB),
#: seconds.  Local: get dataset, analysis, total.  Grid: stage dataset,
#: stage code, analysis, total.
TABLE1_LOCAL = (1921.3753393803506, 779.9759999999999, 2701.3513393803505)
TABLE1_GRID = (234.3199737317703, 6.701348272181775, 73.40000000000029, 314.42132200395235)


@pytest.mark.parametrize("nodes", sorted(TABLE2))
def test_table2_row_is_pinned(nodes):
    grid = run_grid_experiment(471.0, nodes, events_per_mb=4, collect_tree=False)
    cells = (grid.move_whole, grid.split, grid.move_parts, grid.analysis)
    assert cells == pytest.approx(TABLE2[nodes], abs=1e-9)


def test_table1_cells_are_pinned(local):
    grid = run_grid_experiment(471.0, 16, events_per_mb=5, collect_tree=False)
    assert (local.download, local.analysis, local.total) == pytest.approx(
        TABLE1_LOCAL, abs=1e-9
    )
    cells = (grid.stage_dataset, grid.stage_code, grid.analysis, grid.total)
    assert cells == pytest.approx(TABLE1_GRID, abs=1e-9)


@pytest.fixture(scope="module")
def grid16():
    return run_grid_experiment(471.0, 16, events_per_mb=2, collect_tree=False)


@pytest.fixture(scope="module")
def grid1():
    return run_grid_experiment(471.0, 1, events_per_mb=2, collect_tree=False)


@pytest.fixture(scope="module")
def local():
    return run_local_experiment(471.0)


def test_local_total_45_minutes(local):
    assert local.total == pytest.approx(45 * 60, rel=0.02)


def test_local_download_32_minutes(local):
    assert local.download == pytest.approx(32 * 60, rel=0.02)


def test_local_analysis_13_minutes(local):
    assert local.analysis == pytest.approx(13 * 60, rel=0.02)


def test_grid16_staging_columns(grid16):
    assert grid16.move_whole == pytest.approx(63, rel=0.03)
    assert grid16.split == pytest.approx(120, rel=0.05)
    assert grid16.move_parts == pytest.approx(50, rel=0.05)
    assert grid16.stage_code == pytest.approx(7, abs=1.0)


def test_grid_analysis_endpoints(grid1, grid16):
    assert grid1.analysis == pytest.approx(330, rel=0.05)
    assert grid16.analysis == pytest.approx(78, rel=0.08)


def test_grid_beats_local_decisively(local, grid16):
    speedup = local.total / grid16.total
    assert 6.0 < speedup < 12.0  # paper: ~10x


def test_crossover_region(local, grid16):
    """Local wins tiny datasets; grid wins by ~20 MB at 16 nodes."""
    small_local = run_local_experiment(5.0)
    small_grid = run_grid_experiment(5.0, 16, events_per_mb=2, collect_tree=False)
    assert small_local.total < small_grid.total
    mid_local = run_local_experiment(25.0)
    mid_grid = run_grid_experiment(25.0, 16, events_per_mb=2, collect_tree=False)
    assert mid_grid.total < mid_local.total
