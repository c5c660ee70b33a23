"""Unit tests for the sample analyses (Higgs, counter, cuts, trading).

Every analysis is loaded the way an engine loads it: its staged ``SOURCE``
compiled in the sandbox.
"""

import hashlib

import numpy as np
import pytest

from repro.aida.fit import fit_histogram
from repro.aida.tree import ObjectTree
from repro.analysis import counting, cuts, higgs, trading
from repro.analysis.trading import generate_trading_days
from repro.dataset.events import PROCESS_CODES, EventBatch
from repro.dataset.generator import GeneratorConfig, ILCEventGenerator
from repro.engine.sandbox import load_analysis


def run_analysis(analysis, batch):
    tree = ObjectTree()
    analysis.start(tree)
    analysis.process_batch(batch, tree)
    analysis.end(tree)
    return tree


# ---------------------------------------------------------------------------
# The staged sources are the product: their bytes are charged to T_grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module, length, sha256", [
    (counting, 674, "59365988a71cc0c60412386e76e9af9ecb397a2d0e15713cd5ac7a789df0b692"),
    (cuts, 1211, "1f4236cdc970b16737743802b2de0f3b101eeb68b835e101b474c747776c1d5a"),
    (higgs, 2549, "0284dfa6c88c2668e52391ef37ee0410883e9510185e0efd8d9cb529c27845fe"),
    (trading, 1442, "6312314c5454327de7080b9ead9dd5e3b403386b9f055e4aa0b893504f8df684"),
], ids=["counting", "cuts", "higgs", "trading"])
def test_source_bytes_are_pinned(module, length, sha256):
    # ``CodeBundle.size_kb`` charges the stage-code transfer by length, so
    # an edit here moves every session's simulated time and the e2e golden
    # digests: re-pin deliberately, together with benchmarks/e2e/golden.json.
    assert len(module.SOURCE) == length
    assert hashlib.sha256(module.SOURCE.encode()).hexdigest() == sha256


# ---------------------------------------------------------------------------
# Higgs search
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mixed_batch():
    return ILCEventGenerator(seed=202).generate(6000)


def test_higgs_creates_outputs(mixed_batch):
    tree = run_analysis(load_analysis(higgs.SOURCE), mixed_batch)
    for path in (
        "/higgs/dijet_mass",
        "/higgs/z_mass",
        "/higgs/visible_energy",
    ):
        assert tree.exists(path)


def test_higgs_finds_peak_in_pure_signal():
    config = GeneratorConfig(fractions=(("zh", 1.0),))
    batch = ILCEventGenerator(config, seed=7).generate(4000)
    tree = run_analysis(load_analysis(higgs.SOURCE), batch)
    mass = tree.get("/higgs/dijet_mass")
    fit = fit_histogram(mass, "gaussian", fit_range=(95, 145))
    assert fit.parameters["mean"] == pytest.approx(120.0, abs=3.0)
    z_mass = tree.get("/higgs/z_mass")
    z_fit = fit_histogram(z_mass, "gaussian", fit_range=(70, 110))
    assert z_fit.parameters["mean"] == pytest.approx(91.2, abs=3.0)


def test_higgs_peak_visible_over_background(mixed_batch):
    tree = run_analysis(load_analysis(higgs.SOURCE), mixed_batch)
    mass = tree.get("/higgs/dijet_mass")
    axis = mass.axis
    peak_bin = axis.coord_to_index(120.0)
    sideband_bin = axis.coord_to_index(170.0)
    assert mass.bin_height(peak_bin) > 2 * mass.bin_height(sideband_bin)


def test_higgs_only_processes_four_jet_events(mixed_batch):
    tree = run_analysis(load_analysis(higgs.SOURCE), mixed_batch)
    counts = np.diff(mixed_batch.offsets)
    four_jet = int(np.sum(counts == 4))
    assert tree.get("/higgs/dijet_mass").all_entries == four_jet


def test_higgs_energy_cut_reduces_candidates(mixed_batch):
    def candidates(min_visible_energy):
        analysis = load_analysis(
            higgs.SOURCE, parameters={"min_visible_energy": min_visible_energy}
        )
        return run_analysis(analysis, mixed_batch).get("/higgs/dijet_mass").all_entries

    assert candidates(500.0) < candidates(0.0)


def test_higgs_empty_batch():
    tree = run_analysis(load_analysis(higgs.SOURCE), EventBatch.empty())
    assert tree.get("/higgs/dijet_mass").all_entries == 0


# ---------------------------------------------------------------------------
# Event counter
# ---------------------------------------------------------------------------

def test_counter_totals(mixed_batch):
    tree = run_analysis(load_analysis(counting.SOURCE), mixed_batch)
    assert tree.get("/counts/process").entries == len(mixed_batch)
    assert tree.get("/counts/multiplicity").entries == len(mixed_batch)


def test_counter_process_fractions(mixed_batch):
    tree = run_analysis(load_analysis(counting.SOURCE), mixed_batch)
    process_hist = tree.get("/counts/process")
    zh = process_hist.bin_height(PROCESS_CODES["zh"])
    assert zh / process_hist.entries == pytest.approx(0.15, abs=0.02)


def test_counter_staged_source(mixed_batch):
    staged = run_analysis(load_analysis(counting.SOURCE), mixed_batch)
    assert staged.get("/counts/process").entries == len(mixed_batch)


# ---------------------------------------------------------------------------
# Selection cuts
# ---------------------------------------------------------------------------

def test_cuts_pass_fail_partition(mixed_batch):
    analysis = load_analysis(cuts.SOURCE, parameters={"min_energy": 400.0})
    tree = run_analysis(analysis, mixed_batch)
    decision = tree.get("/cuts/decision")
    assert decision.entries == len(mixed_batch)
    passed = decision.bin_height(1)
    failed = decision.bin_height(0)
    assert passed + failed == len(mixed_batch)
    assert 0 < passed < len(mixed_batch)
    assert tree.get("/cuts/energy_pass").entries == passed


def test_cuts_efficiency_monotone_in_threshold(mixed_batch):
    efficiencies = []
    for threshold in (0.0, 300.0, 450.0, 550.0):
        analysis = load_analysis(cuts.SOURCE, parameters={"min_energy": threshold})
        decision = run_analysis(analysis, mixed_batch).get("/cuts/decision")
        efficiencies.append(decision.bin_height(1) / decision.entries)
    assert efficiencies[0] == pytest.approx(1.0)
    assert all(a >= b for a, b in zip(efficiencies, efficiencies[1:]))


def test_cuts_staged_source(mixed_batch):
    staged = run_analysis(
        load_analysis(cuts.SOURCE, parameters={"min_energy": 400.0}), mixed_batch
    )
    assert staged.get("/cuts/decision").entries == len(mixed_batch)


# ---------------------------------------------------------------------------
# Trading
# ---------------------------------------------------------------------------

def test_trading_generator_shapes():
    batch = generate_trading_days(100, trades_per_day=20, seed=1)
    assert len(batch) == 100
    assert batch.n_particles == 2000
    assert np.all(batch.e > 0)  # prices positive
    assert set(np.unique(batch.pdg)) <= {-1, 1}


def test_trading_generator_validation():
    with pytest.raises(ValueError):
        generate_trading_days(-1)
    with pytest.raises(ValueError):
        generate_trading_days(5, trades_per_day=0)


def test_trading_generator_deterministic():
    a = generate_trading_days(50, seed=3)
    b = generate_trading_days(50, seed=3)
    assert np.array_equal(a.e, b.e)


def test_trading_analysis_outputs():
    batch = generate_trading_days(200, seed=5)
    tree = run_analysis(load_analysis(trading.SOURCE), batch)
    assert tree.get("/trading/daily_volume").entries == 200
    vwap = tree.get("/trading/vwap_by_day")
    assert vwap.entries == 200
    # VWAP close to the generated price scale.
    assert 50 < vwap.bin_height(0) < 200


def test_trading_staged_source():
    batch = generate_trading_days(50, seed=11)
    tree = run_analysis(load_analysis(trading.SOURCE), batch)
    assert tree.get("/trading/daily_volume").entries == 50
