"""Bounded retry with exponential backoff and deterministic jitter.

Beam sessions tolerate transient host faults — a board that drops off the
network gets re-queued, not written off — and the multi-campaign scheduler
mirrors that: a chunk whose worker fails transiently is retried a bounded
number of times before the failure surfaces as a
:class:`~repro.beam.executor.CampaignExecutionError`.

:class:`RetryPolicy` is the whole policy: how many retries, how long the
delays grow, where they cap, and how much seeded jitter decorrelates
retries of unrelated chunks.  ``delay(attempt, rng)`` is a pure function
of the attempt number and the RNG state, so tests can assert the exact
backoff schedule a failing chunk experienced.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["FAIL_FAST", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with a cap and multiplicative jitter.

    Attributes:
        max_retries: re-dispatches allowed per chunk after its first
            failure (``0`` disables retrying entirely).
        base_delay: seconds before the first retry.
        max_delay: ceiling on the un-jittered delay.
        jitter: fractional spread; each delay is scaled by a factor drawn
            uniformly from ``[1 - jitter, 1 + jitter]``.  ``0`` makes the
            schedule fully deterministic.
    """

    max_retries: int = 3
    base_delay: float = 0.5
    max_delay: float = 30.0
    jitter: float = 0.1

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay <= 0:
            raise ValueError("base_delay must be positive")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt: int, rng: "random.Random | None" = None) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based).

        The un-jittered schedule is ``base_delay * 2**(attempt - 1)``
        capped at ``max_delay``; with ``rng`` the result is scaled by the
        jitter factor drawn from that stream (pass a seeded
        :class:`random.Random` for reproducible schedules).
        """
        if attempt < 1:
            raise ValueError("attempt counts from 1")
        raw = min(self.base_delay * 2.0 ** (attempt - 1), self.max_delay)
        if self.jitter and rng is not None:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return raw

    def schedule(self, rng: "random.Random | None" = None) -> list[float]:
        """The full backoff schedule one chunk would experience."""
        return [
            self.delay(attempt, rng)
            for attempt in range(1, self.max_retries + 1)
        ]


#: No retries: the first chunk failure fails the job.  The policy of the
#: single-spec entry points (:func:`repro.store.execute_spec`,
#: :func:`repro.store.resume_run`), which raise the failure to the caller.
FAIL_FAST = RetryPolicy(max_retries=0)
