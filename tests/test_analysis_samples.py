"""Unit tests for the sample analyses (Higgs, counter, cuts, trading).

Every analysis is loaded the way an engine loads it: its staged ``SOURCE``
compiled in the sandbox.
"""

import hashlib
import sys

import numpy as np
import pytest

from repro.aida.fit import fit_histogram
from repro.aida.tree import ObjectTree
from repro.analysis import counting, cuts, higgs, trading
from repro.analysis.trading import generate_trading_days
from repro.dataset.events import PROCESS_CODES, EventBatch
from repro.dataset.generator import GeneratorConfig, ILCEventGenerator
from repro.engine.sandbox import load_analysis


#: The Higgs search as staged when each of its six dijets was one ``dijet``
#: call and the masses two rounds of ``np.stack``: the reference whose trees
#: ``higgs.SOURCE`` must reproduce bit for bit.
PER_DIJET_HIGGS_SOURCE = '''
class StagedHiggsSearch(Analysis):
    """Dijet Higgs search (staged-source edition)."""

    name = "higgs-search"

    def __init__(self, min_visible_energy=0.0, mass_bins=60,
                 mass_low=40.0, mass_high=200.0):
        self.min_visible_energy = float(min_visible_energy)
        self.mass_bins = int(mass_bins)
        self.mass_low = float(mass_low)
        self.mass_high = float(mass_high)

    def start(self, tree):
        tree.put("/higgs/dijet_mass", Histogram1D(
            "dijet_mass", "Higgs candidate dijet mass [GeV]",
            bins=self.mass_bins, lower=self.mass_low, upper=self.mass_high))
        tree.put("/higgs/z_mass", Histogram1D(
            "z_mass", "Z candidate dijet mass [GeV]",
            bins=self.mass_bins, lower=self.mass_low, upper=self.mass_high))
        tree.put("/higgs/visible_energy", Histogram1D(
            "visible_energy", "Total visible energy [GeV]",
            bins=60, lower=0.0, upper=600.0))

    def process_batch(self, batch, tree):
        if len(batch) == 0:
            return
        counts = np.diff(batch.offsets)
        # Exact: bit for bit the sum of each event's slice,
        # so staged == native trees.
        visible = batch.per_event_sum(batch.e)
        tree.get("/higgs/visible_energy").fill_array(visible)
        selected = (counts == 4) & (visible >= self.min_visible_energy)
        if not np.any(selected):
            return
        starts = batch.offsets[np.nonzero(selected)[0]].astype(int)
        gather = starts[:, None] + np.arange(4)[None, :]
        e, px = batch.e[gather], batch.px[gather]
        py, pz = batch.py[gather], batch.pz[gather]

        def dijet(a, b):
            se = e[:, a] + e[:, b]
            sx = px[:, a] + px[:, b]
            sy = py[:, a] + py[:, b]
            sz = pz[:, a] + pz[:, b]
            return np.sqrt(np.clip(se * se - sx * sx - sy * sy - sz * sz, 0, None))

        pairings = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
        masses = np.stack(
            [np.stack([dijet(*pa), dijet(*pb)], axis=1) for pa, pb in pairings],
            axis=1,
        )
        dz = np.abs(masses - 91.1876)
        closer = np.argmin(dz, axis=2)
        best_dz = np.take_along_axis(dz, closer[:, :, None], axis=2)[:, :, 0]
        best = np.argmin(best_dz, axis=1)
        row = np.arange(masses.shape[0])
        z_slot = closer[row, best]
        tree.get("/higgs/z_mass").fill_array(masses[row, best, z_slot])
        tree.get("/higgs/dijet_mass").fill_array(masses[row, best, 1 - z_slot])
'''


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
    (higgs, 2549, "28c920a92f10763349665e501b00b157a3af2acab21886f36eec02115844c404"),
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


def run_chunked(source, batch, chunk, **parameters):
    analysis = load_analysis(source, parameters=parameters)
    tree = ObjectTree()
    analysis.start(tree)
    for start in range(0, len(batch), chunk):
        analysis.process_batch(
            batch.slice(start, min(start + chunk, len(batch))), tree
        )
    analysis.end(tree)
    return tree


@pytest.mark.parametrize("chunk", [1, 7, 500, 2000, 3000])
def test_higgs_one_pass_dijets_equal_per_dijet_calls_bit_for_bit(mixed_batch, chunk):
    # to_dict() encodes every array, so == compares bits: no tolerance.
    batch = mixed_batch.slice(0, 3000)
    new = run_chunked(higgs.SOURCE, batch, chunk)
    assert new.to_dict() == run_chunked(PER_DIJET_HIGGS_SOURCE, batch, chunk).to_dict()


@pytest.mark.parametrize("min_visible_energy", [0.0, 150.0, 1e9])
def test_higgs_one_pass_dijets_equal_per_dijet_calls_under_cuts(
    mixed_batch, min_visible_energy
):
    new = run_chunked(higgs.SOURCE, mixed_batch, 500,
                      min_visible_energy=min_visible_energy)
    old = run_chunked(PER_DIJET_HIGGS_SOURCE, mixed_batch, 500,
                      min_visible_energy=min_visible_energy)
    assert new.to_dict() == old.to_dict()


def test_higgs_one_pass_dijets_without_four_jet_events():
    config = GeneratorConfig(fractions=(("qq", 1.0),))
    batch = ILCEventGenerator(config, seed=31).generate(1200)
    assert not np.any(np.diff(batch.offsets) == 4)
    new = run_chunked(higgs.SOURCE, batch, 500)
    assert new.to_dict() == run_chunked(PER_DIJET_HIGGS_SOURCE, batch, 500).to_dict()
    assert new.get("/higgs/dijet_mass").all_entries == 0
    assert new.get("/higgs/visible_energy").all_entries == len(batch)


def test_higgs_dijets_tied_in_distance_to_mz_keep_the_first_index():
    # Jets at rest, so a dijet's mass is its energy sum.  Pairings (0,1)(2,3)
    # and (0,3)(1,2) both hold one dijet 8 GeV under m_Z and one 8 GeV over
    # it, all four exactly 8.0 away: the first pairing and its first dijet
    # (jets 0 and 1) are the Z candidate.
    mz = 91.1876
    under, over = mz - 8.0, mz + 8.0
    e = np.array([10.0, under - 10.0, 10.0, over - 10.0])
    assert abs(e[0] + e[1] - mz) == abs(e[2] + e[3] - mz) == 8.0
    assert abs(e[0] + e[3] - mz) == abs(e[1] + e[2] - mz) == 8.0
    zeros = np.zeros(4)
    batch = EventBatch(
        event_ids=[0], process=[PROCESS_CODES["zh"]], weights=[1.0],
        offsets=[0, 4], pdg=[1, 1, 1, 1], e=e, px=zeros, py=zeros, pz=zeros,
    )
    new = run_analysis(load_analysis(higgs.SOURCE), batch)
    assert new.to_dict() == run_analysis(
        load_analysis(PER_DIJET_HIGGS_SOURCE), batch
    ).to_dict()
    assert new.get("/higgs/z_mass").mean == under
    assert new.get("/higgs/dijet_mass").mean == over


def calls_per_chunk(source, batch):
    """``call`` + ``c_call`` profile events per 500-event chunk of *source*,
    fills included."""
    analysis = load_analysis(source)
    tree = ObjectTree()
    analysis.start(tree)
    calls = [0]

    def hook(_frame, event, _arg):
        if event in ("call", "c_call"):
            calls[0] += 1

    chunks = range(0, len(batch), 500)
    sys.setprofile(hook)
    try:
        for start in chunks:
            analysis.process_batch(batch.slice(start, start + 500), tree)
    finally:
        sys.setprofile(None)
    return calls[0] / len(chunks)


def test_a_higgs_chunk_costs_few_python_and_c_calls(mixed_batch):
    """The per-chunk numpy dispatch overhead, as a deterministic count.
    Numpy's own Python wrappers are in it, so the gate is relative to the
    per-dijet source counted in the same process: one pass over the six
    dijets costs ≈ 0.62 of its calls (167 of 271 on numpy 2.4)."""
    one_pass = calls_per_chunk(higgs.SOURCE, mixed_batch)
    assert one_pass <= 0.65 * calls_per_chunk(PER_DIJET_HIGGS_SOURCE, mixed_batch)


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
