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

#: Jets per event by process code: zh, ww and zz decay to four, qq is two.
JETS_PER_EVENT = np.array([4, 4, 4, 2])

#: One jet of every event of a process: ``(e, px, py, pz)`` arrays.
Jet = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


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
        """Generate a batch of *n_events* mixed-process events.

        The drawn process labels lay out the block; each process's jets are
        then smeared straight into their slots.  ``pdg`` and ``weights`` are
        one value throughout: read-only zero-stride columns.
        """
        if n_events < 0:
            raise ValueError("n_events must be >= 0")
        if n_events == 0:
            return EventBatch.empty()
        rng = self._rng
        names = [name for name, _ in self.config.fractions]
        probs = np.array([f for _, f in self.config.fractions])
        codes = np.array([PROCESS_CODES[name] for name in names], dtype=np.int16)
        process = codes[rng.choice(len(names), size=n_events, p=probs)]

        offsets = np.zeros(n_events + 1, dtype=np.int64)
        np.cumsum(JETS_PER_EVENT[process], out=offsets[1:])
        columns = tuple(np.empty(int(offsets[-1])) for _ in range(4))
        for name, code in zip(names, codes):
            first = offsets[:-1][process == code]
            if len(first):
                jets = getattr(self, f"_make_{name}")(len(first))
                self._smear_into(jets, first, columns)

        event_ids = np.arange(self._next_event_id, self._next_event_id + n_events)
        self._next_event_id += n_events
        return EventBatch(
            event_ids,
            process,
            np.broadcast_to(1.0, n_events),
            offsets,
            np.broadcast_to(np.int32(JET_PDG), len(columns[0])),
            *columns,
        )

    # -- process builders ----------------------------------------------
    def _two_boson_jets(self, n: int, mass_a: float, mass_b: float) -> List[Jet]:
        """Events with two bosons back-to-back, each decaying to two jets."""
        rng = self._rng
        roots = self.config.sqrt_s
        p = two_body_momentum(roots, mass_a, mass_b)
        momentum = [p * u for u in isotropic_directions(n, rng)]
        ea = np.full(n, np.sqrt(p * p + mass_a * mass_a))
        jets = list(two_body_decay(ea, *momentum, 0.0, 0.0, rng))
        # Boson b flies opposite boson a: negate a's momentum in place.
        for component in momentum:
            np.negative(component, out=component)
        eb = np.full(n, np.sqrt(p * p + mass_b * mass_b))
        return jets + list(two_body_decay(eb, *momentum, 0.0, 0.0, rng))

    def _make_zh(self, n: int) -> List[Jet]:
        """Signal: Z H with H -> bb and Z -> qq (four jets)."""
        return self._two_boson_jets(n, self.config.higgs_mass, MASS_Z)

    def _make_ww(self, n: int) -> List[Jet]:
        """Background: W pair to four jets."""
        return self._two_boson_jets(n, MASS_W, MASS_W)

    def _make_zz(self, n: int) -> List[Jet]:
        """Background: Z pair to four jets."""
        return self._two_boson_jets(n, MASS_Z, MASS_Z)

    def _make_qq(self, n: int) -> List[Jet]:
        """Background: continuum q qbar — two back-to-back jets."""
        rng = self._rng
        # Radiative return spreads the effective energy below sqrt(s).
        e_jet = self.config.sqrt_s / 2 * rng.uniform(0.5, 1.0, n)
        ux, uy, uz = isotropic_directions(n, rng)
        j1 = (e_jet, e_jet * ux, e_jet * uy, e_jet * uz)
        j2 = (e_jet, -e_jet * ux, -e_jet * uy, -e_jet * uz)
        return [j1, j2]

    # -- helpers --------------------------------------------------------
    def _smear_into(self, jets: List[Jet], first: np.ndarray, out: Tuple[np.ndarray, ...]) -> None:
        """Smear jet *k* of each event into slot ``first + k`` of *out*."""
        stochastic, constant = self.config.smear_stochastic, self.config.smear_constant
        for slot, jet in enumerate(jets):
            je = jet[0]
            scale = smear_energies(je, self._rng, stochastic, constant) / np.clip(je, 1e-12, None)
            for column, values in zip(out, jet):
                column[first + slot] = values * scale
