"""Interactive run controls.

The JAS client offers "interactive controls for the dataset analysis:
ability to rewind, run, run specific no of events and stop analysis"
(Fig. 4).  :class:`Controller` is the mailbox those buttons write to; the
engine polls it between chunks and transitions a small state machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


class Command:
    """Control command verbs (string constants)."""

    RUN = "run"
    PAUSE = "pause"
    STOP = "stop"
    REWIND = "rewind"
    STEP = "step"  # run a specific number of events, then pause

    ALL = frozenset({RUN, PAUSE, STOP, REWIND, STEP})


class ControlState:
    """Engine execution states."""

    IDLE = "idle"          # loaded, not yet started
    RUNNING = "running"
    PAUSED = "paused"
    STOPPED = "stopped"    # terminal for the current run; rewind restarts

    ALL = frozenset({IDLE, RUNNING, PAUSED, STOPPED})


@dataclass(frozen=True)
class ControlMessage:
    """One queued command with an optional argument (STEP's event count)."""

    command: str
    argument: Optional[int] = None

    def __post_init__(self) -> None:
        if self.command not in Command.ALL:
            raise ValueError(f"unknown command {self.command!r}")
        if self.command == Command.STEP:
            if self.argument is None or self.argument < 1:
                raise ValueError("STEP requires a positive event count")


class Controller:
    """Command mailbox plus the engine-side state machine.

    The client (or the session service on its behalf) calls the verb
    methods; the engine calls :meth:`drain` between chunks and adjusts its
    behaviour according to :attr:`state` and :attr:`step_budget`.
    """

    def __init__(self) -> None:
        self._queue: List[ControlMessage] = []
        self.state = ControlState.IDLE
        #: Remaining events allowed by an active STEP command (None = no cap).
        self.step_budget: Optional[int] = None
        #: REWINDs requested since the engine last reset (0 = none); the
        #: engine clears it after resetting its cursor and histograms.
        self.rewind_requested = 0

    # -- client-side verbs -------------------------------------------------
    def run(self) -> None:
        """Start or resume free running."""
        self._queue.append(ControlMessage(Command.RUN))

    def pause(self) -> None:
        """Pause after the current chunk."""
        self._queue.append(ControlMessage(Command.PAUSE))

    def stop(self) -> None:
        """Stop the run (terminal until rewind)."""
        self._queue.append(ControlMessage(Command.STOP))

    def rewind(self) -> None:
        """Reset to the first event and clear results."""
        self._queue.append(ControlMessage(Command.REWIND))

    def step(self, n_events: int) -> None:
        """Run exactly *n_events* more events, then pause."""
        self._queue.append(ControlMessage(Command.STEP, n_events))

    @property
    def pending(self) -> int:
        """Number of undrained commands."""
        return len(self._queue)

    # -- engine side ---------------------------------------------------------
    def drain(self) -> None:
        """Apply all queued commands to the state machine, in order."""
        while self._queue:
            message = self._queue.pop(0)
            self._apply(message)

    def _apply(self, message: ControlMessage) -> None:
        command = message.command
        if command == Command.REWIND:
            self.rewind_requested += 1
            self.step_budget = None
            self.state = ControlState.PAUSED
        elif command == Command.STOP:
            self.state = ControlState.STOPPED
            self.step_budget = None
        elif command == Command.PAUSE:
            if self.state == ControlState.RUNNING:
                self.state = ControlState.PAUSED
            self.step_budget = None
        elif command == Command.RUN:
            if self.state != ControlState.STOPPED:
                self.state = ControlState.RUNNING
                self.step_budget = None
        elif command == Command.STEP:
            if self.state != ControlState.STOPPED:
                self.state = ControlState.RUNNING
                self.step_budget = message.argument

    def consume_step_budget(self, n_events: int) -> None:
        """Deduct processed events from an active STEP budget."""
        if self.step_budget is None:
            return
        self.step_budget -= n_events
        if self.step_budget <= 0:
            self.step_budget = None
            self.state = ControlState.PAUSED

    def chunk_allowance(self, default_chunk: int) -> int:
        """Events the engine may process in the next chunk."""
        if self.step_budget is None:
            return default_chunk
        return min(default_chunk, self.step_budget)

    def acknowledge_rewind(self) -> None:
        """Engine confirms it reset its cursor and results."""
        self.rewind_requested = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Controller {self.state} pending={self.pending}>"
