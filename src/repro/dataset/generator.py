"""Synthetic International-Linear-Collider event generator.

Produces the workload of the paper's sample analysis — "a Java algorithm
that looks for Higgs Bosons in simulated Linear Collider data" (§4) — as
the closest synthetic equivalent of the LCIO simulation files hosted at
SLAC:

* **signal** ``e+e- -> Z H`` at sqrt(s) = 500 GeV: the Z and H are produced
  back-to-back with the exact two-body momentum, then decayed — H -> b bbar
  (two jets at m_H = 120 GeV), Z -> q qbar (two jets at m_Z);
* **backgrounds** ``WW`` and ``ZZ`` (four jets from two bosons) and
  continuum ``q qbar`` (two high-energy jets);
* every final-state jet is smeared with a calorimeter-style resolution, so
  reconstructed dijet masses form realistic peaks over combinatorial
  background.

Everything is driven by a seeded :class:`numpy.random.Generator` for exact
reproducibility, and generation is fully vectorized over events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.dataset.events import PROCESS_CODES, EventBatch
from repro.dataset.physics import (
    MASS_HIGGS,
    MASS_W,
    MASS_Z,
    isotropic_directions,
    smear_energies,
    two_body_decay,
    two_body_momentum,
)

#: PDG-style label we give reconstructed jets.
JET_PDG = 81


@dataclass(frozen=True)
class GeneratorConfig:
    """Physics and mixture settings for the generator.

    Parameters
    ----------
    sqrt_s:
        Collider center-of-mass energy in GeV.
    higgs_mass:
        Signal Higgs mass (the 2006 benchmark value of 120 GeV).
    fractions:
        Mixture of processes; must sum to 1.
    smear_stochastic, smear_constant:
        Jet-energy resolution terms.
    """

    sqrt_s: float = 500.0
    higgs_mass: float = MASS_HIGGS
    fractions: Tuple[Tuple[str, float], ...] = (
        ("zh", 0.15),
        ("ww", 0.35),
        ("zz", 0.20),
        ("qq", 0.30),
    )
    smear_stochastic: float = 0.6
    smear_constant: float = 0.02

    def __post_init__(self) -> None:
        if self.sqrt_s <= 0:
            raise ValueError("sqrt_s must be > 0")
        if self.higgs_mass + MASS_Z >= self.sqrt_s:
            raise ValueError("ZH production closed at this sqrt_s")
        names = [name for name, _ in self.fractions]
        if len(set(names)) != len(names):
            raise ValueError("duplicate process in fractions")
        for name, fraction in self.fractions:
            if name not in PROCESS_CODES:
                raise ValueError(f"unknown process {name!r}")
            if fraction < 0:
                raise ValueError("fractions must be >= 0")
        total = sum(f for _, f in self.fractions)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1 (got {total})")


class ILCEventGenerator:
    """Seeded, vectorized generator of synthetic LC physics events.

    Parameters
    ----------
    config:
        Physics configuration.
    seed:
        RNG seed; the same seed always produces the same events.
    """

    def __init__(
        self, config: GeneratorConfig = GeneratorConfig(), seed: int = 0
    ) -> None:
        self.config = config
        self._rng = np.random.default_rng(seed)
        self._next_event_id = 0

    # ------------------------------------------------------------------
    def generate(self, n_events: int) -> EventBatch:
        """Generate a batch of *n_events* mixed-process events."""
        if n_events < 0:
            raise ValueError("n_events must be >= 0")
        if n_events == 0:
            return EventBatch.empty()
        rng = self._rng
        names = [name for name, _ in self.config.fractions]
        probs = np.array([f for _, f in self.config.fractions])
        choice = rng.choice(len(names), size=n_events, p=probs)

        sub_batches: List[Tuple[np.ndarray, EventBatch]] = []
        for index, name in enumerate(names):
            mask = choice == index
            count = int(mask.sum())
            if count == 0:
                continue
            maker = getattr(self, f"_make_{name}")
            sub_batches.append((np.nonzero(mask)[0], maker(count)))

        # Re-interleave to the original event order for realism.
        order = np.concatenate([positions for positions, _ in sub_batches])
        merged = EventBatch.concatenate([batch for _, batch in sub_batches])
        perm = np.argsort(order, kind="stable")
        reordered = _permute_batch(merged, perm)
        reordered.event_ids[:] = np.arange(
            self._next_event_id, self._next_event_id + n_events
        )
        self._next_event_id += n_events
        return reordered

    # -- process builders ----------------------------------------------
    def _two_boson_jets(
        self, n: int, mass_a: float, mass_b: float, process: str
    ) -> EventBatch:
        """Events with two bosons back-to-back, each decaying to two jets."""
        rng = self._rng
        roots = self.config.sqrt_s
        p = two_body_momentum(roots, mass_a, mass_b)
        ux, uy, uz = isotropic_directions(n, rng)
        ea = np.full(n, np.sqrt(p * p + mass_a * mass_a))
        eb = np.full(n, np.sqrt(p * p + mass_b * mass_b))
        a = (ea, p * ux, p * uy, p * uz)
        b = (eb, -p * ux, -p * uy, -p * uz)
        j1, j2 = two_body_decay(*a, 0.0, 0.0, rng)
        j3, j4 = two_body_decay(*b, 0.0, 0.0, rng)
        return self._jets_to_batch([j1, j2, j3, j4], process)

    def _make_zh(self, n: int) -> EventBatch:
        """Signal: Z H with H -> bb and Z -> qq (four jets)."""
        return self._two_boson_jets(n, self.config.higgs_mass, MASS_Z, "zh")

    def _make_ww(self, n: int) -> EventBatch:
        """Background: W pair to four jets."""
        return self._two_boson_jets(n, MASS_W, MASS_W, "ww")

    def _make_zz(self, n: int) -> EventBatch:
        """Background: Z pair to four jets."""
        return self._two_boson_jets(n, MASS_Z, MASS_Z, "zz")

    def _make_qq(self, n: int) -> EventBatch:
        """Background: continuum q qbar — two back-to-back jets."""
        rng = self._rng
        # Radiative return spreads the effective energy below sqrt(s).
        e_jet = self.config.sqrt_s / 2 * rng.uniform(0.5, 1.0, n)
        ux, uy, uz = isotropic_directions(n, rng)
        j1 = (e_jet, e_jet * ux, e_jet * uy, e_jet * uz)
        j2 = (e_jet, -e_jet * ux, -e_jet * uy, -e_jet * uz)
        return self._jets_to_batch([j1, j2], "qq")

    # -- helpers --------------------------------------------------------
    def _jets_to_batch(
        self,
        jets: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
        process: str,
    ) -> EventBatch:
        """Smear jets and pack one event per row of the jet arrays."""
        rng = self._rng
        n = len(jets[0][0])
        k = len(jets)
        e = np.empty((n, k))
        px = np.empty((n, k))
        py = np.empty((n, k))
        pz = np.empty((n, k))
        for column, (je, jx, jy, jz) in enumerate(jets):
            scale = (
                smear_energies(
                    je,
                    rng,
                    self.config.smear_stochastic,
                    self.config.smear_constant,
                )
                / np.clip(je, 1e-12, None)
            )
            e[:, column] = je * scale
            px[:, column] = jx * scale
            py[:, column] = jy * scale
            pz[:, column] = jz * scale
        offsets = np.arange(n + 1, dtype=np.int64) * k
        return EventBatch(
            event_ids=np.zeros(n, dtype=np.int64),  # assigned by generate()
            process=np.full(n, PROCESS_CODES[process], dtype=np.int16),
            weights=np.ones(n),
            offsets=offsets,
            pdg=np.full(n * k, JET_PDG, dtype=np.int32),
            e=e.ravel(),
            px=px.ravel(),
            py=py.ravel(),
            pz=pz.ravel(),
        )


def _permute_batch(batch: EventBatch, perm: np.ndarray) -> EventBatch:
    """Reorder a batch's events by *perm* (array of source indices)."""
    counts = np.diff(batch.offsets)
    new_counts = counts[perm]
    new_offsets = np.concatenate([[0], np.cumsum(new_counts)])
    n_particles = int(batch.offsets[-1])
    # Particle gather index: slot j of the output belongs to the event whose
    # particles moved by (old start - new start), so add that shift to j.
    shift = batch.offsets[:-1][perm] - new_offsets[:-1]
    gather = np.arange(n_particles) + np.repeat(shift, new_counts)
    return EventBatch(
        batch.event_ids[perm],
        batch.process[perm],
        batch.weights[perm],
        new_offsets,
        batch.pdg[gather],
        batch.e[gather],
        batch.px[gather],
        batch.py[gather],
        batch.pz[gather],
    )
