"""Algorithm 1: adaptive advance-forward-propagation.

Starts at ``advance = 0`` (pure 1F1B) and raises it one micro-batch per
iteration while (a) the measured iteration time keeps improving
(``is_faster``) and (b) predicted activation memory stays under the
user's limit (``is_mem_available``).  The controller is pure policy — the
caller supplies a ``measure(advance) -> (batch_time, peak_mem)`` probe,
so the same logic drives both the simulator and unit tests with stubbed
measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = ["AdaptiveAdvanceController"]


@dataclass
class AdaptiveAdvanceController:
    """Stateful Algorithm-1 controller.

    Parameters
    ----------
    num_micro:
        Upper bound on ``advance`` (advance = M degenerates to AFAB).
    memory_limit_bytes:
        The user-defined per-device limit (Algorithm 1 line 9).
    improvement_threshold:
        Relative speedup below which ``is_faster()`` reports False; the
        paper's conservative strategy stops growing as soon as gains stop.
    """

    num_micro: int
    memory_limit_bytes: float
    improvement_threshold: float = 0.005
    advance: int = 0
    _best_time: float = field(default=float("inf"), repr=False)
    _stopped: bool = field(default=False, repr=False)
    history: list[tuple[int, float, float]] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.num_micro <= 0:
            raise ValueError("num_micro must be positive")
        if self.memory_limit_bytes <= 0:
            raise ValueError("memory limit must be positive")

    def observe(self, batch_time: float, peak_memory_bytes: float) -> int:
        """Feed one iteration's measurements; returns the advance to use
        for the *next* iteration (Algorithm 1 lines 9-10)."""
        self.history.append((self.advance, batch_time, peak_memory_bytes))
        if self._stopped:
            return self.advance
        faster = batch_time < self._best_time * (1.0 - self.improvement_threshold)
        if batch_time < self._best_time:
            self._best_time = batch_time
        mem_ok = peak_memory_bytes < self.memory_limit_bytes
        if not mem_ok:
            # The current advance already violates the user limit: settle
            # one step back (Algorithm 1's conservative strategy must never
            # end over budget).
            if self.advance > 0:
                self.advance -= 1
            self._stopped = True
        elif faster and self.advance < self.num_micro:
            self.advance += 1
        else:
            if not faster and self.advance > 0 and len(self.history) > 1:
                # The last increment did not pay off; settle one step back.
                self.advance -= 1
            self._stopped = True
        return self.advance

    def tune(self, measure: Callable[[int], tuple[float, float]], max_iters: int = 64) -> int:
        """Closed-loop tuning against a measurement probe; returns the
        settled advance value."""
        for _ in range(max_iters):
            self.observe(*measure(self.advance))
            if self._stopped:
                break
        return self.advance
