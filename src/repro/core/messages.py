"""Asynchronous update queues (§3.2 step 3).

AvgPipe sends each pipeline's local update to the reference process
through a message queue "in an asynchronous manner" so inter-process
communication never blocks the pipeline.  In the real system the effect
of asynchrony is *staleness*: the reference weights a pipeline dilutes
against may lag by a bounded number of iterations.  :class:`MessageQueue`
models exactly that — messages become visible ``delay`` ticks after being
posted — so the statistical-efficiency experiments can measure the cost
of asynchrony (the async-reference ablation) with deterministic replay.
"""

from __future__ import annotations

from collections import deque
from typing import Generic, Iterable, TypeVar

T = TypeVar("T")

__all__ = ["MessageQueue"]


class MessageQueue(Generic[T]):
    """FIFO queue whose messages appear ``delay`` ticks after posting.

    ``delay=0`` is a synchronous queue (visible the same tick).  The clock
    is advanced explicitly by the training loop via :meth:`tick`, keeping
    runs reproducible.
    """

    def __init__(self, delay: int = 0) -> None:
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        self.delay = delay
        self._now = 0
        #: (visible_at, payload), oldest first
        self._pending: deque[tuple[int, T]] = deque()

    def put(self, payload: T) -> None:
        self._pending.append((self._now + self.delay, payload))

    def tick(self) -> None:
        self._now += 1

    def clear(self) -> None:
        """Drop every pending message (a membership change voids them)."""
        self._pending.clear()

    def state(self) -> tuple[int, list[tuple[int, T]]]:
        """The clock and every pending ``(visible_at, payload)``, oldest
        first — what a checkpoint needs to replay the queue exactly."""
        return self._now, list(self._pending)

    def load_state(self, now: int, pending: Iterable[tuple[int, T]]) -> None:
        """Restore what :meth:`state` returned, replacing pending messages."""
        self._now = now
        self._pending = deque(pending)

    def drain(self) -> list[T]:
        """Pop every message visible at the current tick (FIFO order)."""
        out: list[T] = []
        while self._pending and self._pending[0][0] <= self._now:
            out.append(self._pending.popleft()[1])
        return out

    def __len__(self) -> int:
        return len(self._pending)
