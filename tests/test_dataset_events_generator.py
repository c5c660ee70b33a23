"""Unit tests for the event model and the synthetic ILC generator."""

import numpy as np
import pytest

from repro.dataset.events import PROCESS_CODES, EventBatch
from repro.dataset.generator import GeneratorConfig, ILCEventGenerator
from repro.dataset.physics import MASS_Z, pair_mass


def simple_batch():
    return EventBatch.from_events(
        [
            (0, PROCESS_CODES["zh"], 1.0, [(81, 100.0, 50.0, 0.0, 0.0), (81, 90.0, -50.0, 0.0, 0.0)]),
            (1, PROCESS_CODES["qq"], 0.5, [(81, 200.0, 0.0, 100.0, 0.0)]),
            (2, PROCESS_CODES["ww"], 1.0, []),
        ]
    )


# ---------------------------------------------------------------------------
# EventBatch
# ---------------------------------------------------------------------------

def test_batch_lengths():
    batch = simple_batch()
    assert len(batch) == 3
    assert batch.n_particles == 3
    assert batch.nbytes > 0


def test_batch_event_view():
    # One event's record is the one-event slice of the columns.
    event = simple_batch().slice(0, 1)
    assert event.n_particles == 2
    assert event.process[0] == PROCESS_CODES["zh"]
    assert event.per_event_sum(event.e)[0] == pytest.approx(190.0)
    assert event.weights[0] == 1.0


def test_batch_event_empty_particles():
    event = simple_batch().slice(2, 3)
    assert event.n_particles == 0
    assert event.per_event_sum(event.e).tolist() == [0.0]


def test_batch_event_out_of_range():
    with pytest.raises(IndexError):
        simple_batch().slice(3, 4)


def test_event_jets_filter():
    batch = EventBatch.from_events(
        [(0, 0, 1.0, [(81, 10.0, 0, 0, 0), (13, 5.0, 0, 0, 0)])]
    )
    jets = batch.pdg == 81
    assert jets.sum() == 1
    assert batch.e[jets].tolist() == [10.0]


def test_batch_iteration():
    assert simple_batch().event_ids.tolist() == [0, 1, 2]


def test_batch_slice_rebases_offsets():
    batch = simple_batch()
    sub = batch.slice(1, 3)
    assert len(sub) == 2
    assert sub.offsets.tolist() == [0, 1, 1]
    assert sub.event_ids[0] == 1


def test_batch_slice_validation():
    with pytest.raises(IndexError):
        simple_batch().slice(2, 1)
    with pytest.raises(IndexError):
        simple_batch().slice(0, 4)


def test_batch_concatenate_roundtrip():
    batch = simple_batch()
    rejoined = EventBatch.concatenate([batch.slice(0, 1), batch.slice(1, 3)])
    assert len(rejoined) == 3
    assert np.array_equal(rejoined.event_ids, batch.event_ids)
    assert np.array_equal(rejoined.e, batch.e)
    assert np.array_equal(rejoined.offsets, batch.offsets)


def test_batch_concatenate_empty():
    assert len(EventBatch.concatenate([])) == 0
    assert len(EventBatch.concatenate([EventBatch.empty()])) == 0


def test_batch_validation_errors():
    with pytest.raises(ValueError):
        EventBatch(
            np.zeros(2), np.zeros(1), np.zeros(2), np.zeros(3),
            np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0),
        )
    with pytest.raises(ValueError):
        EventBatch(
            np.zeros(1), np.zeros(1), np.zeros(1), np.array([0, 5]),
            np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3),
        )


# ---------------------------------------------------------------------------
# GeneratorConfig
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(sqrt_s=0)
    with pytest.raises(ValueError):
        GeneratorConfig(sqrt_s=200.0)  # ZH closed at 200 with mH=120
    with pytest.raises(ValueError):
        GeneratorConfig(fractions=(("zh", 0.5), ("zh", 0.5)))
    with pytest.raises(ValueError):
        GeneratorConfig(fractions=(("zh", 0.7), ("qq", 0.2)))
    with pytest.raises(ValueError):
        GeneratorConfig(fractions=(("mystery", 1.0),))
    with pytest.raises(ValueError):
        GeneratorConfig(fractions=(("zh", -0.5), ("qq", 1.5)))


# ---------------------------------------------------------------------------
# ILCEventGenerator
# ---------------------------------------------------------------------------

def test_generator_deterministic_with_seed():
    a = ILCEventGenerator(seed=123).generate(200)
    b = ILCEventGenerator(seed=123).generate(200)
    assert np.array_equal(a.e, b.e)
    assert np.array_equal(a.process, b.process)


def test_generator_different_seeds_differ():
    a = ILCEventGenerator(seed=1).generate(100)
    b = ILCEventGenerator(seed=2).generate(100)
    assert not np.array_equal(a.e, b.e)


def test_generator_event_ids_sequential_across_calls():
    gen = ILCEventGenerator(seed=5)
    first = gen.generate(10)
    second = gen.generate(10)
    assert list(first.event_ids) == list(range(10))
    assert list(second.event_ids) == list(range(10, 20))


def test_generator_zero_events():
    assert len(ILCEventGenerator().generate(0)) == 0
    with pytest.raises(ValueError):
        ILCEventGenerator().generate(-1)


def test_generator_process_mixture():
    batch = ILCEventGenerator(seed=7).generate(4000)
    fractions = {
        name: np.mean(batch.process == code)
        for name, code in PROCESS_CODES.items()
    }
    assert fractions["zh"] == pytest.approx(0.15, abs=0.03)
    assert fractions["ww"] == pytest.approx(0.35, abs=0.03)
    assert fractions["qq"] == pytest.approx(0.30, abs=0.03)


def test_generator_particle_counts_by_process():
    batch = ILCEventGenerator(seed=9).generate(500)
    counts = np.diff(batch.offsets)
    qq = batch.process == PROCESS_CODES["qq"]
    assert qq.any() and (~qq).any()
    assert (counts[qq] == 2).all()
    assert (counts[~qq] == 4).all()


def zh_jet_pair_mass(batch, i, j):
    """Per-event mass of jets *i* and *j* of a batch of ZH events.

    Every particle of a ZH event is a jet (pdg 81), four per event: jets
    0,1 are the Higgs decay by construction, 2,3 the Z decay.
    """
    assert (batch.process == PROCESS_CODES["zh"]).all()
    assert (np.diff(batch.offsets) == 4).all()
    assert (batch.pdg == 81).all()
    e, px, py, pz = (column.reshape(-1, 4) for column in (batch.e, batch.px, batch.py, batch.pz))
    return pair_mass(e[:, i], px[:, i], py[:, i], pz[:, i], e[:, j], px[:, j], py[:, j], pz[:, j])


def test_signal_events_contain_higgs_mass_peak():
    """Pairing the two H jets of ZH events reconstructs ~120 GeV."""
    config = GeneratorConfig(fractions=(("zh", 1.0),), smear_stochastic=0.0, smear_constant=0.0)
    batch = ILCEventGenerator(config, seed=11).generate(300)
    masses = zh_jet_pair_mass(batch, 0, 1)
    z_masses = zh_jet_pair_mass(batch, 2, 3)
    assert len(masses) == 300
    assert np.allclose(masses, 120.0, rtol=1e-6)
    assert np.allclose(z_masses, MASS_Z, rtol=1e-6)


def test_smearing_broadens_peak():
    sharp_config = GeneratorConfig(
        fractions=(("zh", 1.0),), smear_stochastic=0.0, smear_constant=0.0
    )
    smeared_config = GeneratorConfig(fractions=(("zh", 1.0),))

    def mass_spread(config, seed):
        return np.std(zh_jet_pair_mass(ILCEventGenerator(config, seed=seed).generate(500), 0, 1))

    assert mass_spread(smeared_config, 13) > 10 * mass_spread(sharp_config, 13)


def test_energy_conservation_before_smearing():
    config = GeneratorConfig(fractions=(("ww", 1.0),), smear_stochastic=0.0, smear_constant=0.0)
    batch = ILCEventGenerator(config, seed=17).generate(100)
    assert np.allclose(batch.per_event_sum(batch.e), 500.0, rtol=1e-9, atol=0.0)
    for column in (batch.px, batch.py, batch.pz):
        assert (np.abs(batch.per_event_sum(column)) < 1e-6).all()
