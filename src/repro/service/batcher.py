"""Micro-batching with explicit backpressure.

Submissions land in a bounded queue; a single flush loop hands them to
the engine the moment it is idle.  Nothing is held back to wait for
company: a lone job on an idle engine runs at once, and jobs that arrive
while a batch runs queue up and form the next batch, in arrival order,
up to ``max_batch`` of them.  A full queue rejects at the door (`offer`
returns ``False``) instead of buffering unboundedly; that rejection *is*
the backpressure signal the server turns into a ``queue_full`` error
frame.

The batcher is transport-agnostic: items are opaque, and the server
provides the async ``runner`` that executes a popped batch and replies
to clients.  One batch is in flight at a time, so the batches that form
behind it are what lets a persistent pool amortize across concurrent
clients.
"""

from __future__ import annotations

import asyncio
from collections import deque


class MicroBatcher:
    """Coalesce queued items into batches for an async ``runner``.

    * ``runner(batch)`` — awaited with 1..``max_batch`` items, in arrival
      order; exceptions it raises abort the flush loop (the server's
      runner catches everything and replies per-item instead).
    * ``max_batch`` — the most items one batch takes; the rest wait for
      the next.
    * ``max_queue`` — :meth:`offer` rejects beyond this many *waiting*
      items (in-flight items are bounded separately by ``max_batch``).
    """

    def __init__(self, runner, *, max_batch: int = 8, max_queue: int = 64):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self._runner = runner
        self.max_batch = max_batch
        self.max_queue = max_queue
        self._queue: deque = deque()
        self._wakeup = asyncio.Event()
        self._closing = False
        self.in_flight = 0
        self.batches = 0

    # -- producer side ----------------------------------------------------

    @property
    def depth(self) -> int:
        """Items waiting (excludes the batch currently running)."""
        return len(self._queue)

    def offer(self, item) -> bool:
        """Enqueue ``item``; ``False`` means the queue is full (or the
        batcher is draining) and the item was NOT accepted."""
        if self._closing or len(self._queue) >= self.max_queue:
            return False
        self._queue.append(item)
        self._wakeup.set()
        return True

    def discard(self, item) -> bool:
        """Remove a still-queued item (cancellation / deadline expiry).
        ``False`` if it already left the queue."""
        try:
            self._queue.remove(item)
        except ValueError:
            return False
        return True

    def close(self) -> None:
        """Stop accepting; :meth:`run` drains what is queued and returns."""
        self._closing = True
        self._wakeup.set()

    # -- consumer side ----------------------------------------------------

    async def run(self) -> None:
        """The flush loop; returns once closed and fully drained."""
        while True:
            while not self._queue:
                if self._closing:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
            n = min(len(self._queue), self.max_batch)
            batch = [self._queue.popleft() for _ in range(n)]
            self.in_flight = n
            self.batches += 1
            try:
                await self._runner(batch)
            finally:
                self.in_flight = 0
