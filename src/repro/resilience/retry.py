"""Reusable retry policy with exponential backoff and deterministic jitter.

Every layer that retries — GridFTP transfers, GRAM submissions, session
admission — shares this one policy object instead of hard-coding its own
fixed delay.  Jitter is derived from a seeded RNG keyed on
``(seed, salt, attempt)`` so simulation runs remain bit-for-bit
reproducible: the same policy applied to the same operation sequence
always produces the same delays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry schedule.

    Parameters
    ----------
    max_attempts:
        Total number of tries (first attempt included); must be >= 1.
    base_delay:
        Delay before the first retry, in simulated seconds.
    multiplier:
        Backoff factor: retry *n* (0-based) waits
        ``base_delay * multiplier**n``, capped at ``max_delay``.
    max_delay:
        Ceiling on a single delay.
    jitter:
        Fractional jitter amplitude in ``[0, 1)``: each delay is scaled by
        a factor drawn uniformly from ``[1 - jitter, 1 + jitter]``.  With
        the default ``0.0`` delays are exact, which keeps timing-sensitive
        calibration tests deterministic.
    seed:
        Seed mixed into the jitter RNG (ignored when ``jitter == 0``).
    deadline:
        Optional budget in simulated seconds: once the cumulative delay
        would exceed it, :meth:`delay` returns ``None`` and the caller
        should give up even if attempts remain.
    """

    max_attempts: int = 3
    base_delay: float = 1.0
    multiplier: float = 2.0
    max_delay: float = 60.0
    jitter: float = 0.0
    seed: int = 0
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0:
            raise ValueError("base_delay must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1.0")
        if self.max_delay < 0:
            raise ValueError("max_delay must be >= 0")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.deadline is not None and self.deadline < 0:
            raise ValueError("deadline must be >= 0")

    @property
    def max_retries(self) -> int:
        """Number of retries after the first attempt."""
        return self.max_attempts - 1

    def delay(self, attempt: int, salt: object = None) -> float:
        """Backoff delay after failed attempt *attempt* (0-based).

        ``salt`` distinguishes concurrent operations sharing one policy
        (e.g. a transfer id) so their jitter streams are independent but
        still deterministic.
        """
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        base = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter == 0.0:
            return base
        rng = random.Random(f"{self.seed}|{salt!r}|{attempt}")
        factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base * factor

    def delays(self, salt: object = None) -> list:
        """All retry delays in order, honouring ``deadline`` if set."""
        out = []
        spent = 0.0
        for attempt in range(self.max_retries):
            d = self.delay(attempt, salt)
            if self.deadline is not None and spent + d > self.deadline:
                break
            spent += d
            out.append(d)
        return out

    def should_retry(self, attempt: int, elapsed: float = 0.0) -> bool:
        """Whether another try is allowed after failed attempt *attempt*."""
        if attempt + 1 >= self.max_attempts:
            return False
        if self.deadline is not None:
            if elapsed + self.delay(attempt) > self.deadline:
                return False
        return True

    def with_attempts(self, max_attempts: int) -> "RetryPolicy":
        """Copy of this policy with a different attempt budget."""
        from dataclasses import replace

        return replace(self, max_attempts=max_attempts)
