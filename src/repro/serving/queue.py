"""Bounded request queue with admission control.

The queue is the single pending store of the serving layer: requests wait
here from admission until the batcher pulls them into a dispatch. Ordering
is priority-first, FIFO within a priority level. ``put`` applies admission
control — when the queue is at ``max_depth`` it rejects immediately
(backpressure).

The queue holds no lock of its own: its owner, the
:class:`~repro.serving.lifecycle.RequestLifecycle`, calls it under the
lifecycle's condition, which is also where live backends block.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterator

from repro.serving.request import Request


class QueueFullError(RuntimeError):
    """Raised by ``put`` when admission control turns a request away."""


class QueueClosedError(RuntimeError):
    """Raised when putting into a closed queue."""


class RequestQueue:
    """Priority/FIFO queue of pending requests, bounded by ``max_depth``."""

    def __init__(self, max_depth: int | None = None) -> None:
        if max_depth is not None and max_depth <= 0:
            raise ValueError(f"max_depth must be positive, got {max_depth}")
        self.max_depth = max_depth
        self._heap: list[tuple[tuple[int, float, int], Request]] = []
        self._counter = itertools.count()
        self._closed = False

    # ---- admission --------------------------------------------------------

    def put(self, req: Request) -> None:
        """Admit a request; rejects when at ``max_depth``."""
        if self._closed:
            raise QueueClosedError("queue is closed")
        if self.max_depth is not None and len(self._heap) >= self.max_depth:
            raise QueueFullError(f"queue at max depth {self.max_depth}")
        # Higher priority first; FIFO (arrival, then admission order) within.
        key = (-req.priority, req.arrival_us, next(self._counter))
        heapq.heappush(self._heap, (key, req))

    # ---- inspection -------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of pending requests."""
        return len(self._heap)

    def __iter__(self) -> Iterator[Request]:
        """Pending requests, in no particular order (does not consume)."""
        return (req for _, req in self._heap)

    # ---- removal ----------------------------------------------------------

    def pop(self) -> Request | None:
        """Remove and return the highest-priority request (None if empty)."""
        return heapq.heappop(self._heap)[1] if self._heap else None

    def pop_where(self, pred: Callable[[Request], bool],
                  limit: int) -> list[Request]:
        """Remove up to ``limit`` matching requests, in dispatch order.

        This is how the batcher pulls one bucket's worth of work while
        leaving other buckets queued.
        """
        taken: list[Request] = []
        kept = []
        for entry in sorted(self._heap):
            if len(taken) < limit and pred(entry[1]):
                taken.append(entry[1])
            else:
                kept.append(entry)
        if taken:
            self._heap = kept  # sorted, hence already a valid heap
        return taken

    def drain(self) -> list[Request]:
        """Remove and return everything still pending, in dispatch order."""
        entries, self._heap = sorted(self._heap), []
        return [req for _, req in entries]

    def close(self) -> None:
        """Stop admitting: every later ``put`` raises."""
        self._closed = True
