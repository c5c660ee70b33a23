"""Periodic session checkpoints: compact snapshots of merge state.

While the journal (``journal.py``) records *control-plane* transitions,
checkpoints persist the *data plane*: the AIDA manager's per-engine
merge state (sequence cursors, ban set, full object trees).  Replaying
the journal alone would force every live engine to resend its entire
history; a checkpoint lets recovery restore the merge cache to the last
flushed state and ask engines only for what came after.

The on-disk format reuses the keyframe/delta idea of the incremental
snapshot pipeline: every ``keyframe_every``-th write (4 on the session
service) is a full keyframe, the writes in between are deltas carrying
only engines whose sequence advanced since the previous checkpoint.  Records are
checksummed lines in the :class:`~repro.resilience.journal.DurableStore`;
:meth:`CheckpointStore.load` folds the last *committed* keyframe plus
subsequent committed deltas, so a torn final record (crash mid-flush)
silently falls back to the previous consistent state.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .journal import DurableStore, decode_record, encode_record


class CheckpointStore:
    """Keyframe/delta checkpoint writer+reader for one session."""

    PREFIX = "checkpoint/"

    def __init__(
        self,
        store: DurableStore,
        session_id: str,
        keyframe_every: int = 4,
    ) -> None:
        self.store = store
        self.session_id = session_id
        self.keyframe_every = max(1, keyframe_every)
        self.name = self.PREFIX + session_id
        # A fresh writer (service restart) always starts with a keyframe:
        # it has no in-memory baseline to delta against.
        self._writes = 0
        self._last_seqs: Dict[str, int] = {}
        self._last_run_id = -1

    def write(self, session_state: dict, merge_state: dict, torn: bool = False) -> str:
        """Append one checkpoint record; returns ``"keyframe"``/``"delta"``.

        With ``torn`` the record is cut in half mid-line before the append
        (modelling a crash during the flush) and the writer's delta
        baseline is left untouched — the torn bytes must be invisible to
        :meth:`load`.
        """
        run_id = merge_state.get("run_id", 0)
        keyframe = (
            self._writes % self.keyframe_every == 0
            or run_id != self._last_run_id
        )
        engines = merge_state.get("engines", {})
        if keyframe:
            payload = dict(merge_state)
        else:
            changed = {
                engine_id: state
                for engine_id, state in engines.items()
                if state.get("sequence", 0) > self._last_seqs.get(engine_id, -1)
            }
            removed = [e for e in self._last_seqs if e not in engines]
            payload = dict(merge_state)
            payload["engines"] = changed
            payload["removed"] = removed
        record = {
            "kind": "keyframe" if keyframe else "delta",
            "session": session_state,
            "merge": payload,
        }
        line = encode_record(record)
        if torn:
            self.store.append(self.name, line[: max(1, len(line) // 2)])
            return "torn"
        self.store.append(self.name, line)
        self._writes += 1
        self._last_seqs = {
            engine_id: state.get("sequence", 0)
            for engine_id, state in engines.items()
        }
        self._last_run_id = run_id
        return record["kind"]

    def load(self) -> Optional[Tuple[dict, dict]]:
        """Latest consistent ``(session_state, merge_state)``, or None.

        Folds the last committed keyframe plus every committed delta after
        it; corrupt/torn records are skipped, so a crash mid-flush
        degrades to the previous checkpoint rather than poisoning
        recovery.
        """
        records: List[dict] = []
        for line in self.store.read(self.name):
            record = decode_record(line)
            if record is not None and record.get("kind") in ("keyframe", "delta"):
                records.append(record)
        last_key = None
        for index, record in enumerate(records):
            if record["kind"] == "keyframe":
                last_key = index
        if last_key is None:
            return None
        base = records[last_key]
        session_state = dict(base["session"])
        merge_state = dict(base["merge"])
        engines = dict(merge_state.get("engines", {}))
        for record in records[last_key + 1:]:
            delta = record["merge"]
            session_state = dict(record["session"])
            for engine_id in delta.get("removed", []):
                engines.pop(engine_id, None)
            engines.update(delta.get("engines", {}))
            for key, value in delta.items():
                if key not in ("engines", "removed"):
                    merge_state[key] = value
        merge_state["engines"] = engines
        merge_state.pop("removed", None)
        return session_state, merge_state

    def delete(self) -> None:
        """Drop the checkpoint file (session closed)."""
        self.store.delete(self.name)
