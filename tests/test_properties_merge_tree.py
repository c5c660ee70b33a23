"""Property test: at every tree depth the served merge is bit-identical to
the from-scratch oracle fold under random interleavings of submissions,
held/out-of-order deliveries, combiner crashes, discards, rewinds, and
polls (``tests/merge_oracle.py`` holds the one body; this file picks the
depths).

After a *leaf* combiner crash its engines' entries are gone; the model
immediately republishes full keyframes for the affected engines (what
``SessionService.resync_engines`` does in the live system) so the served
tree heals before the next poll.  Internal-combiner crashes rebuild from
their children and need no engine traffic.
"""

import random

import pytest

from repro.services.aida_manager import AIDAManagerService
from repro.sim import Environment
from tests.merge_oracle import check_interleaving, check_poll, fresh_engine

N_ENGINES = 9


@pytest.mark.parametrize("fan_in", [None, 2, 3, 8])
@pytest.mark.parametrize("seed", range(4))
def test_tiered_merge_matches_flat_merge(seed, fan_in):
    """Depth 1 (``None``: one leaf), 4 (fan-in 2), 2 (3 and 8)."""
    check_interleaving(seed, fan_in, N_ENGINES)


@pytest.mark.parametrize("seed", range(3))
def test_fan_in_none_keeps_flat_path_bit_identical(seed):
    """With ``fan_in=None`` the tree is a single leaf from the first
    snapshot on — planned or not — and the served tree matches the oracle
    fold exactly even with non-dyadic (arbitrary float) fills."""
    rng = random.Random(seed)
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0)
    engines = {f"e{i}": fresh_engine(f"e{i}") for i in range(4)}
    latest = {}
    for step in range(40):
        engine_id = rng.choice(sorted(engines))
        engine = engines[engine_id]
        engine.tree.get("/h/a").fill(rng.random(), weight=rng.random())
        engine.tree.get("/p").fill(rng.random(), rng.random())
        if rng.random() < 0.5:
            status = manager.submit_snapshot("s1", engine.take_snapshot())
            assert status == "accepted"
            latest[engine_id] = engine.tree.copy()
        if step == 20:
            # Planning mid-stream keeps the leaf and everything it holds.
            grown = manager.tier("s1")
            assert manager.configure_tier("s1", sorted(engines)) is grown
        if rng.random() < 0.3:
            check_poll(env, manager, latest)
    assert manager.tier("s1").depth == 1
    check_poll(env, manager, latest)
