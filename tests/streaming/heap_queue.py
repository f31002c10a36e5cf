"""The binary-heap event queue the calendar queue replaced.

Same contract as :class:`repro.streaming.events.EventQueue`: events fire in
exact ``(time, sequence)`` order.  The differential suite checks the
calendar queue against it and the event-queue microbenchmark measures
both.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.errors import SimulationError


class HeapEventQueue:
    """The original heapq-based queue (reference implementation).

    Kept for differential testing against
    :class:`~repro.streaming.events.EventQueue` and as the baseline side of
    ``benchmarks/bench_events.py``; the engine itself runs on the calendar
    queue.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., None], tuple[Any, ...]]] = []
        self._seq = 0
        self._now = 0.0
        self._peak = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def peak_depth(self) -> int:
        return self._peak

    def schedule(self, t: float, callback: Callable[..., None], *args: Any) -> None:
        if t < self._now:
            raise SimulationError(
                f"event scheduled in the past: {t:.6f} < now {self._now:.6f}"
            )
        heapq.heappush(self._heap, (t, self._seq, callback, args))
        self._seq += 1
        if len(self._heap) > self._peak:
            self._peak = len(self._heap)

    def run_until(self, t_end: float) -> int:
        processed = 0
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= t_end:
            t, _seq, callback, args = pop(heap)
            self._now = t
            callback(*args)
            processed += 1
        self._now = max(self._now, t_end)
        return processed

    def __len__(self) -> int:
        return len(self._heap)
