"""The merge oracle: the from-scratch fold every merge test compares against.

``src/`` has one merge path (every session folds incrementally through a
``MergeTree``); the from-scratch fold it must stay equal to lives only
here.  ``reference_merge`` is that fold — ``ObjectTree.merge_from`` over
the latest accepted tree per engine, in sorted engine order — and
``check_interleaving`` is the property that holds a manager of any tree
depth to it — and holds a client that only ever polls conditionally (it
sends the validator of the tree it holds) to the same tree.
"""

import random

from repro.aida.hist1d import Histogram1D
from repro.aida.profile import Profile1D
from repro.aida.tree import ObjectTree
from repro.engine.engine import AnalysisEngine
from repro.services.aida_manager import AIDAManagerService
from repro.sim import Environment


def reference_merge(latest):
    """Serialized from-scratch merge of ``{engine_id: tree}``.

    Values are ``ObjectTree``\\ s or full-keyframe tree dicts (which are
    deserialized first, as the pre-incremental manager did on every poll).
    """
    merged = ObjectTree()
    for engine_id in sorted(latest):
        tree = latest[engine_id]
        if isinstance(tree, dict):
            tree = ObjectTree.from_dict(tree)
        merged.merge_from(tree)
    return merged.to_dict()



# -- the interleaving property ------------------------------------------------
#
# One body for every tree depth: a manager is driven through a random
# interleaving of fills, submissions, held/out-of-order deliveries, polls,
# combiner crashes and retirements, discards and rewinds, and every poll
# must serve exactly ``reference_merge`` of the latest accepted trees.
# A ``ConditionalViewer`` rides along: whatever "not modified" replies it
# collects, the tree it holds must equal the unconditional poll's.  On
# even seeds it is checked after every single step (each operation alone
# must move the validator if it moved the tree), on odd seeds only at the
# schedule's own polls (so operations pile up dirty state between polls).

N_OPS = 80


def populate(engine):
    # What an analysis' ``start`` would do; 30 bins so the array codec's
    # compact form is exercised end to end.
    engine.tree.put("/h/a", Histogram1D("a", bins=30, lower=0.0, upper=1.5))
    engine.tree.put("/h/b", Histogram1D("b", bins=30, lower=0.0, upper=1.5))
    engine.tree.put("/p", Profile1D("p", bins=30, lower=0.0, upper=1.5))


def fresh_engine(engine_id):
    engine = AnalysisEngine(engine_id, keyframe_every=3)
    populate(engine)
    return engine


def fill_random(engine, draw):
    engine.tree.get("/h/a").fill(draw(), weight=draw())
    if draw() < 0.6:
        engine.tree.get("/h/b").fill(draw())
    if draw() < 0.4:
        engine.tree.get("/p").fill(draw(), draw())


class ConditionalViewer:
    """A poller that always sends the validator of the tree it holds."""

    def __init__(self):
        self.tree_dict = None
        self.have = None

    def poll(self, env, manager):
        tree_dict, progress = env.run(
            until=manager.merged("s1", client_id="viewer", have=self.have)
        )
        if tree_dict is not None:
            self.tree_dict = tree_dict
            self.have = progress.merge_generation
        return self.tree_dict


def check_poll(env, manager, latest, viewer=None):
    tree_dict, progress = env.run(until=manager.merged("s1"))
    assert tree_dict == reference_merge(latest)
    assert progress.engines_reporting == len(latest)
    if viewer is not None:
        assert viewer.poll(env, manager) == tree_dict


def check_interleaving(seed, fan_in, n_engines):
    """Drive a ``fan_in`` manager through ``N_OPS`` random operations.

    A single leaf folds in the oracle's own association order, so it is
    held to bit-equality on arbitrary floats.  Deeper trees associate
    differently: their fills are dyadic rationals (k/32), for which every
    association of the sums yields the same float bits.
    """
    rng = random.Random(seed)
    if fan_in is None:
        draw = rng.random
    else:
        def draw():
            return rng.randrange(1, 33) / 32.0
    env = Environment()
    manager = AIDAManagerService(env, merge_cost_per_tree=0.0, fan_in=fan_in)
    engines = {f"e{i}": fresh_engine(f"e{i}") for i in range(n_engines)}
    tier = manager.configure_tier("s1", sorted(engines))
    assert (tier.depth == 1) == (fan_in is None or n_engines <= fan_in)
    banned = set()
    viewer = ConditionalViewer()
    #: engine -> deep copy of its tree at the latest *accepted* snapshot.
    latest = {}
    #: (engine_id, snapshot, tree copy) taken but not yet submitted.
    held = []

    def submit(engine_id, snapshot, state):
        status = manager.submit_snapshot("s1", snapshot)
        if status == "resync":
            engine = engines[engine_id]
            full = engine.take_snapshot(full=True)
            status = manager.submit_snapshot("s1", full)
            state = engine.tree.copy()
        if status == "accepted":
            assert engine_id not in banned
            latest[engine_id] = state
        else:
            assert status in ("dropped", "resync")

    def heal(affected):
        # The live system's resync path: every engine whose leaf lost its
        # entry republishes a full keyframe.
        for engine_id in affected:
            assert engine_id in latest
            engine = engines[engine_id]
            full = engine.take_snapshot(full=True)
            assert manager.submit_snapshot("s1", full) == "accepted"
            latest[engine_id] = engine.tree.copy()

    for _ in range(N_OPS):
        op = rng.random()
        engine_id = rng.choice(sorted(engines))
        engine = engines[engine_id]
        if op < 0.35:
            fill_random(engine, draw)
        elif op < 0.60:
            submit(engine_id, engine.take_snapshot(), engine.tree.copy())
        elif op < 0.68:
            # Take now, deliver later (possibly out of order).
            held.append((engine_id, engine.take_snapshot(), engine.tree.copy()))
        elif op < 0.74 and held:
            submit(*held.pop(rng.randrange(len(held))))
        elif op < 0.80:
            check_poll(env, manager, latest, viewer)
        elif op < 0.85:
            # Leaf combiner crash: its partial and engine entries are lost.
            leaf = rng.choice(tier.levels[0])
            heal(manager.crash_combiner("s1", leaf.combiner_id))
        elif op < 0.88 and tier.depth > 1:
            # Internal combiner crash: rebuilt from surviving children.
            internal = rng.choice(
                [node for level in tier.levels[1:] for node in level]
            )
            assert manager.crash_combiner("s1", internal.combiner_id) == []
        elif op < 0.91 and len(tier.levels[0]) > 1:
            victim = rng.choice(tier.levels[0])
            manager.retire_combiner("s1", victim.combiner_id)
        elif op < 0.95 and len(latest) > 1:
            manager.discard_engine("s1", engine_id)
            banned.add(engine_id)
            latest.pop(engine_id, None)
            held = [entry for entry in held if entry[0] != engine_id]
        else:
            # Rewind: every engine starts a new run; old snapshots go
            # stale, the tree keeps its topology but drops its state.
            run_id = max(e.run_id for e in engines.values()) + 1
            manager.begin_run("s1", run_id)
            for other in engines.values():
                while other.run_id < run_id:
                    other.rewind()
                populate(other)
            latest.clear()
            held.clear()
        if seed % 2 == 0:
            check_poll(env, manager, latest, viewer)

    # Drain anything still held, then a final full comparison.
    for entry in held:
        submit(*entry)
    for engine_id, engine in sorted(engines.items()):
        if engine_id not in banned:
            fill_random(engine, draw)
            submit(engine_id, engine.take_snapshot(), engine.tree.copy())
    check_poll(env, manager, latest, viewer)
    assert manager.tier("s1") is tier
