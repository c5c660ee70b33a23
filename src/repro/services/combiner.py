"""The merge tree: every session's results fold through combiners (§2.5).

The paper merges engine results at one component (§3.7), warns that it
"will become a bottleneck if there are a large number of users" and
prescribes "a sub-level of components that performs the merging"
(§2.5).  A :class:`MergeTree` is both: *leaf* :class:`CombinerNode`\\ s
own contiguous runs of the sorted engine ids, internal combiners of
degree ``fan_in`` fold their children, and the root's partial is the
tree the manager serves.  ``fan_in=None`` is the paper's single merging
component — one leaf that owns every engine, a tree of depth 1.

Each leaf keeps, per engine, the latest accepted snapshot and its
cumulative deserialized tree: a keyframe replaces the cached tree, a
delta patches it, and a delta whose base does not match the cached
sequence is answered ``"resync"``.  Every combiner keeps an
**incremental partial**: only the object paths dirtied since the last
poll are re-folded, and each combiner republishes its *combined* dirty
paths upward, so a poll re-folds only the dirty subtrees.

Cost model: the combiners of one level run concurrently on the
simulated clock and the levels run in sequence, so a poll charges
``cost x max(dirty children)`` per level — ``cost x dirty engines`` at
depth 1, ``O(f * log_f n)`` with a fan-in when everything is dirty, and
``O(depth)`` when a single engine advanced.  Re-folding a leaf *without*
a discarded engine is a fold like any other and is charged as one.

Correctness: every fold (leaf over its engines, combiner over its
children) is a left fold in sorted order over contiguous ranges, so the
tree visits contributions in the exact global sorted-engine order of a
from-scratch ``ObjectTree.merge_from`` fold.  Histogram addition is
order-insensitive up to float association, so any depth equals the
from-scratch fold exactly for exactly-representable fills
(property-tested) and depth 1 is bit-equal for arbitrary ones.

Crash semantics: a leaf combiner crash loses its engine entries and
partial tree — the affected paths re-fold without the lost
contributions, merge progress stops counting those engines, and their
next deltas are answered with ``"resync"`` (the injector additionally
directs them to republish, so finished engines heal too).  An
*internal* combiner crash only loses its partial; it rebuilds from its
children's intact partials on the next poll.  A retired leaf re-parents
its engines onto the adjacent leaf, preserving the global fold order.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.aida.serial import from_dict as object_from_dict
from repro.aida.tree import ObjectTree
from repro.engine.engine import Snapshot


class CombinerError(Exception):
    """Raised on invalid combiner-tier operations."""


class EngineEntry(NamedTuple):
    """What a leaf holds per engine: the latest accepted snapshot (the
    record merge progress is derived from) and its cumulative tree."""

    snapshot: Snapshot
    tree: ObjectTree


def plan_groups(
    engine_ids: Sequence[str], fan_in: Optional[int]
) -> List[List[str]]:
    """Cut the sorted *engine_ids* into contiguous leaf groups of
    ``<= fan_in`` — the grouping that keeps the hierarchical fold in the
    from-scratch fold's exact association order.  ``fan_in=None`` is one
    group: a single leaf owns every engine.
    """
    if fan_in is not None and fan_in < 2:
        raise CombinerError("fan_in must be >= 2")
    ordered = sorted(set(engine_ids))
    width = fan_in or max(1, len(ordered))
    return [ordered[i : i + width] for i in range(0, len(ordered), width)]


class CombinerNode:
    """One sub-merger: a partial merged tree plus dirty bookkeeping.

    Leaves (``level == 1``) hold one :class:`EngineEntry` per engine;
    internal nodes hold child combiners.  ``dirty_paths`` are the object
    paths whose partial value is stale; ``dirty_children`` names the
    children (engines or combiners) that made them stale — its size is
    what the level's re-fold costs on the simulated clock.
    """

    __slots__ = (
        "combiner_id",
        "level",
        "parent",
        "children",
        "engines",
        "partial",
        "dirty_paths",
        "dirty_children",
        "low",
        "version",
    )

    def __init__(self, combiner_id: str, level: int, low: str = "") -> None:
        self.combiner_id = combiner_id
        self.level = level
        self.parent: Optional["CombinerNode"] = None
        self.children: List["CombinerNode"] = []
        self.engines: Dict[str, EngineEntry] = {}
        self.partial = ObjectTree()
        self.dirty_paths: Set[str] = set()
        self.dirty_children: Set[str] = set()
        #: Smallest engine id this subtree can own (routing key).
        self.low = low
        #: Bumps whenever the partial changes (combined-delta sequence).
        self.version = 0

    @property
    def is_leaf(self) -> bool:
        return self.level == 1

    @property
    def dirty(self) -> bool:
        return bool(self.dirty_paths or self.dirty_children)

    def contributions_in_order(self) -> List[ObjectTree]:
        """Child trees in fold order (sorted engines, or child order)."""
        if self.is_leaf:
            return [self.engines[e].tree for e in sorted(self.engines)]
        return [child.partial for child in self.children]

    def refold(self) -> Tuple[Set[str], int]:
        """Re-fold the dirty paths over the children, left to right.

        Returns ``(changed paths, children folded)`` and clears the
        dirty sets; the changed paths are what this combiner's combined
        delta to its parent carries.
        """
        changed = set(self.dirty_paths)
        folded = len(self.dirty_children)
        if changed:
            ordered = self.contributions_in_order()
            for path in sorted(changed):
                contributions = [
                    tree.get(path) for tree in ordered if tree.exists(path)
                ]
                if self.partial.exists(path):
                    self.partial.remove(path)
                if contributions:
                    acc = contributions[0].copy()
                    for obj in contributions[1:]:
                        acc += obj
                    self.partial.put(path, acc)
            self.version += 1
        self.dirty_paths.clear()
        self.dirty_children.clear()
        return changed, folded

    def reset(self) -> None:
        """Drop all cached state (rewind), keeping the topology."""
        self.engines.clear()
        self.partial = ObjectTree()
        self.dirty_paths.clear()
        self.dirty_children.clear()
        self.version += 1


class MergeTree:
    """A session's merge state: leaves over engines, root at the top.

    Built from the planned leaf *groups* (none = one empty leaf); late
    engines (spares) are routed to the leaf whose ``low`` key precedes
    their id, so the global sorted order stays contiguous.
    """

    def __init__(
        self,
        session_id: str,
        fan_in: Optional[int],
        groups: Sequence[Sequence[str]] = (),
    ) -> None:
        if fan_in is not None and fan_in < 2:
            raise CombinerError("fan_in must be >= 2")
        groups = [list(g) for g in groups if g] or [[]]
        self.session_id = session_id
        self.fan_in = fan_in
        #: Engines whose contribution advanced since the last poll.
        self.dirty_engines: Set[str] = set()
        self._assignment: Dict[str, CombinerNode] = {}
        self._by_id: Dict[str, CombinerNode] = {}
        leaves: List[CombinerNode] = []
        for index, group in enumerate(groups):
            leaf = CombinerNode(
                f"{session_id}/combiner-1.{index}", 1, low=min(group, default="")
            )
            leaves.append(leaf)
            self._by_id[leaf.combiner_id] = leaf
            for engine_id in group:
                self._assignment[engine_id] = leaf
        self.levels: List[List[CombinerNode]] = [leaves]
        nodes = leaves
        level = 1
        while len(nodes) > 1:
            level += 1
            width = fan_in or len(nodes)
            parents: List[CombinerNode] = []
            for index in range(0, len(nodes), width):
                chunk = nodes[index : index + width]
                parent = CombinerNode(
                    f"{session_id}/combiner-{level}.{index // width}",
                    level,
                    low=chunk[0].low,
                )
                parent.children = list(chunk)
                for child in chunk:
                    child.parent = parent
                parents.append(parent)
                self._by_id[parent.combiner_id] = parent
            self.levels.append(parents)
            nodes = parents
        self.root = nodes[0]
        self._rebuild_routing()

    # -- topology -----------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of combiner levels (1 = a single leaf is the root)."""
        return len(self.levels)

    @property
    def n_combiners(self) -> int:
        return sum(len(level) for level in self.levels)

    @property
    def n_engines(self) -> int:
        """Engines with an entry in the tree."""
        return sum(len(leaf.engines) for leaf in self.levels[0])

    @property
    def root_tree(self) -> ObjectTree:
        """The served merged tree (the root combiner's partial)."""
        return self.root.partial

    def _rebuild_routing(self) -> None:
        routes = sorted(
            ((leaf.low, leaf) for leaf in self.levels[0]), key=lambda r: r[0]
        )
        self._route_lows = [low for low, _ in routes]
        self._route_leaves = [leaf for _, leaf in routes]

    def leaf_for(self, engine_id: str) -> CombinerNode:
        """The leaf combiner owning *engine_id* (routes unknown ids)."""
        leaf = self._assignment.get(engine_id)
        if leaf is None:
            index = bisect_right(self._route_lows, engine_id) - 1
            leaf = self._route_leaves[max(index, 0)]
            self._assignment[engine_id] = leaf
        return leaf

    def combiner_of(self, engine_id: str) -> str:
        """Id of the leaf combiner *engine_id* publishes through."""
        return self.leaf_for(engine_id).combiner_id

    def leaf_groups(self) -> List[List[str]]:
        """Planned engine membership per leaf, in level order (checkpoint)."""
        members: Dict[CombinerNode, Set[str]] = {
            leaf: set(leaf.engines) for leaf in self.levels[0]
        }
        for engine_id, leaf in self._assignment.items():
            members.setdefault(leaf, set()).add(engine_id)
        return [sorted(members.get(leaf, ())) for leaf in self.levels[0]]

    # -- ingestion ----------------------------------------------------------
    def ingest(self, snapshot: Snapshot) -> str:
        """Fold a validated snapshot into its leaf combiner's entry.

        A full keyframe replaces the cached tree outright: everything
        it previously contributed and everything it now contributes is
        re-folded.  A delta patches the cached tree; one whose base does
        not match the cached sequence (a snapshot was lost, or no
        keyframe was ever seen) cannot be applied and returns
        ``"resync"``.
        """
        engine_id = snapshot.engine_id
        leaf = self.leaf_for(engine_id)
        cached = leaf.engines.get(engine_id)
        if snapshot.base_sequence == 0:
            new_tree = ObjectTree.from_dict(snapshot.tree)
            if cached is not None:
                leaf.dirty_paths.update(cached.tree.paths())
            leaf.engines[engine_id] = EngineEntry(snapshot, new_tree)
            self._mark_dirty(leaf, engine_id, new_tree.paths())
            return "accepted"
        if cached is None or cached.snapshot.sequence != snapshot.base_sequence:
            return "resync"
        tree = cached.tree
        changed = snapshot.tree.get("objects", {})
        for path, obj_data in changed.items():
            if tree.exists(path):
                tree.remove(path)
            tree.put(path, object_from_dict(obj_data))
        leaf.engines[engine_id] = EngineEntry(snapshot, tree)
        if changed:
            self._mark_dirty(leaf, engine_id, changed)
        return "accepted"

    def _mark_dirty(self, leaf: CombinerNode, engine_id: str, paths) -> None:
        """*engine_id*'s contribution to *paths* changed under *leaf*."""
        leaf.dirty_paths.update(paths)
        leaf.dirty_children.add(engine_id)
        self.dirty_engines.add(engine_id)

    def engine_entry(self, engine_id: str) -> Optional[EngineEntry]:
        """The cached entry for *engine_id*, if any."""
        leaf = self._assignment.get(engine_id)
        if leaf is None:
            return None
        return leaf.engines.get(engine_id)

    def entries(self) -> Dict[str, EngineEntry]:
        """Every engine entry the tree folds, leaf by leaf."""
        return {
            engine_id: entry
            for leaf in self.levels[0]
            for engine_id, entry in leaf.engines.items()
        }

    def restore_engine(self, entry: EngineEntry) -> None:
        """Seed an engine entry (checkpoint restore, re-plan); starts dirty."""
        engine_id = entry.snapshot.engine_id
        leaf = self.leaf_for(engine_id)
        leaf.engines[engine_id] = entry
        self._mark_dirty(leaf, engine_id, entry.tree.paths())

    def discard_engine(self, engine_id: str) -> None:
        """Drop an engine's cache; its paths re-fold without it."""
        leaf = self._assignment.get(engine_id)
        if leaf is None:
            return
        entry = leaf.engines.pop(engine_id, None)
        if entry is not None:
            self._mark_dirty(leaf, engine_id, entry.tree.paths())

    # -- polling ------------------------------------------------------------
    def _dirty_plan(self) -> List[List[Tuple[CombinerNode, int]]]:
        """Per level, the ``(node, n folds)`` a poll would perform now."""
        plan: List[List[Tuple[CombinerNode, int]]] = []
        dirty_prev: Set[CombinerNode] = set()
        for depth, level in enumerate(self.levels):
            entries: List[Tuple[CombinerNode, int]] = []
            for node in level:
                if depth == 0:
                    if node.dirty:
                        entries.append(
                            (node, max(1, len(node.dirty_children)))
                        )
                    continue
                dirty_kids = sum(
                    1 for child in node.children if child in dirty_prev
                )
                if dirty_kids or node.dirty:
                    entries.append(
                        (node, max(1, dirty_kids + len(node.dirty_children)))
                    )
            plan.append(entries)
            dirty_prev = {node for node, _ in entries}
        return plan

    def poll_latency(self, cost: float) -> float:
        """Simulated seconds a poll costs *now*: per level, the
        combiners fold concurrently (charge the level's max fold count);
        levels are sequential (a parent folds its children's outputs).
        """
        if cost <= 0:
            return 0.0
        return sum(
            cost * max(folds for _, folds in entries)
            for entries in self._dirty_plan()
            if entries
        )

    def refold(self) -> List[int]:
        """Re-fold every dirty combiner bottom-up; propagate combined
        deltas upward.  Returns the max fold count per level (the
        concurrent cost profile the latency model charges) and leaves
        nothing dirty.
        """
        per_level: List[int] = []
        for level in self.levels:
            level_max = 0
            for node in level:
                if not node.dirty:
                    continue
                changed, folded = node.refold()
                level_max = max(level_max, folded)
                if node.parent is not None and (changed or folded):
                    node.parent.dirty_paths.update(changed)
                    node.parent.dirty_children.add(node.combiner_id)
            per_level.append(level_max)
        self.dirty_engines.clear()
        return per_level

    # -- failures -----------------------------------------------------------
    def crash_combiner(self, combiner_id: str) -> List[str]:
        """A combiner process dies; its volatile state is lost.

        Leaf: the engine entries and partial vanish — affected paths
        re-fold without the lost contributions and the engines' next
        deltas get ``"resync"``.  Returns the affected engine ids so the
        caller can direct them to republish keyframes.  Internal: only
        the partial is lost; it rebuilds from the children's intact
        partials on the next poll (no engine involvement).
        """
        node = self._by_id.get(combiner_id)
        if node is None:
            raise CombinerError(f"unknown combiner {combiner_id!r}")
        stale = set(node.partial.paths())
        node.partial = ObjectTree()
        node.version += 1
        if node.is_leaf:
            affected = sorted(node.engines)
            for entry in node.engines.values():
                stale.update(entry.tree.paths())
            node.engines.clear()
            node.dirty_paths.update(stale)
            node.dirty_children.update(affected)
            self.dirty_engines.update(affected)
            return affected
        for child in node.children:
            stale.update(child.partial.paths())
            node.dirty_children.add(child.combiner_id)
        node.dirty_paths.update(stale)
        return []

    def retire_combiner(self, combiner_id: str) -> str:
        """Remove a leaf combiner, re-parenting its engines onto the
        adjacent leaf (the previous one in level order, else the next).

        Adjacent re-parenting keeps the global engine fold order
        contiguous, so the served tree is unchanged (up to float
        association) once the moved paths re-fold.  Returns the id of
        the leaf that absorbed the engines.
        """
        node = self._by_id.get(combiner_id)
        if node is None:
            raise CombinerError(f"unknown combiner {combiner_id!r}")
        if not node.is_leaf:
            raise CombinerError("only leaf combiners can be retired")
        leaves = self.levels[0]
        if len(leaves) == 1:
            raise CombinerError("cannot retire the only combiner")
        index = leaves.index(node)
        target = leaves[index - 1] if index > 0 else leaves[index + 1]
        for engine_id, entry in node.engines.items():
            target.engines[engine_id] = entry
            self._mark_dirty(target, engine_id, entry.tree.paths())
        node.engines = {}
        for engine_id, leaf in list(self._assignment.items()):
            if leaf is node:
                self._assignment[engine_id] = target
        target.low = min(target.low, node.low)
        parent = node.parent
        if parent is not None:
            parent.dirty_paths.update(node.partial.paths())
            parent.dirty_children.add(node.combiner_id)
            parent.children.remove(node)
        leaves.remove(node)
        del self._by_id[node.combiner_id]
        # Prune ancestors left childless by the removal.
        while (
            parent is not None
            and not parent.children
            and parent.parent is not None
        ):
            grand = parent.parent
            grand.dirty_paths.update(parent.partial.paths())
            grand.dirty_children.add(parent.combiner_id)
            grand.children.remove(parent)
            self.levels[parent.level - 1].remove(parent)
            del self._by_id[parent.combiner_id]
            parent = grand
        self._rebuild_routing()
        return target.combiner_id

    # -- lifecycle ----------------------------------------------------------
    def reset(self) -> None:
        """Drop every cache (rewind), keeping topology and routing."""
        for level in self.levels:
            for node in level:
                node.reset()
        self.dirty_engines.clear()
