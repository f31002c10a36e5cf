"""Discrete-event core: a deterministic calendar-queue scheduler.

Events are ``(time, sequence, callback, args)`` tuples; the monotonically
increasing sequence number makes simultaneous events fire in scheduling
order, which keeps runs bit-reproducible.

:class:`EventQueue` is a *calendar queue* (Brown's bucketed priority
queue, the structure ns-2-style simulators use for tick-dominated event
mixes): pending events hash into fixed-width time buckets, the drain
walks buckets in ascending index order, and each bucket is sorted by
``(time, sequence)`` when it becomes the active (draining) bucket.

Determinism argument — why dispatch order is provably identical to the
binary heap this replaced:

* the bucket index ``int(t / width)`` is a monotone function of ``t``,
  so ascending bucket order never inverts two events with different
  times in different buckets;
* within a bucket, the sorted run is keyed on the exact ``(t, seq)``
  tuples the heap compared, so same-bucket events (including exact-time
  ties) drain in the heap's order;
* callbacks that schedule into the active bucket insert into the sorted
  run (``bisect.insort``); a new event carries ``t >= now`` and a fresh
  (maximal) sequence number, so its slot is always at or after the drain
  pointer — consumed prefixes are never perturbed.

Together these give the same total order ``(t, seq)`` the heap produced,
with O(1) amortised scheduling instead of O(log n) sift operations.

The original heapq implementation lives on in the test suite
(``tests/streaming/heap_queue.py``) as the differential-testing reference
and the microbenchmark baseline (``benchmarks/bench_events.py``).
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError

#: Default bucket width (seconds).  The engine's mix is dominated by
#: per-probe ticks (0.2–0.5 s intervals) interleaved with chunk arrivals
#: and remote pulls; 50 ms buckets won an A/B sweep over 12.5–400 ms —
#: wide enough to amortise bucket bookkeeping across a sorted run of a
#: few dozen entries, narrow enough that sorting stays insertion-cheap.
DEFAULT_BUCKET_WIDTH_S = 0.05


class EventQueue:
    """Deterministic calendar-queue event scheduler.

    Same contract as the heapq-based queue it replaced: ``schedule`` is
    rejected for times before ``now``, ``run_until`` drains events with
    ``time <= t_end`` in exact ``(time, sequence)`` order and returns the
    number dispatched.  Additionally keeps per-kind scheduling/dispatch
    counters (keyed by callback ``__name__``) for observability — pure
    accounting that cannot perturb event order.
    """

    def __init__(self, bucket_width_s: float = DEFAULT_BUCKET_WIDTH_S) -> None:
        if bucket_width_s <= 0:
            raise SimulationError("bucket width must be positive")
        self._inv_width = 1.0 / bucket_width_s
        #: bucket index -> unsorted list of (t, seq, callback, args).
        self._buckets: dict[int, list] = {}
        #: min-heap of pending (non-active) bucket indices; each index is
        #: pushed exactly once per bucket-list creation and popped at
        #: activation, so it never holds duplicates.
        self._bucket_heap: list[int] = []
        #: The active bucket: sorted ascending by (t, seq), drained via a
        #: local index in run_until (no pop(0) shifting).  Deactivated
        #: (remainder pushed back into ``_buckets``) before run_until
        #: returns, so schedule() outside a drain only ever appends.
        self._active: list | None = None
        self._active_idx = -1
        self._seq = 0
        self._now = 0.0
        self._n = 0
        self._peak = 0
        self._dispatched_by_kind: dict[str, int] = {}

    @property
    def now(self) -> float:
        """Current simulation time (time of the last popped event)."""
        return self._now

    @property
    def peak_depth(self) -> int:
        """Deepest the queue has ever been (pending events high-water mark)."""
        return self._peak

    @property
    def scheduled_by_kind(self) -> dict[str, int]:
        """Events scheduled so far, keyed by callback name.

        Derived as dispatched + still-pending rather than counted per
        ``schedule`` call — the scheduling hot path pays nothing, and the
        walk over pending events is O(queue depth) only when asked.
        (Mid-drain, entries of the active bucket at exactly the current
        time may be attributed to dispatched one event early; outside a
        ``run_until`` call the split is exact.)
        """
        out = dict(self._dispatched_by_kind)
        pending = [e for bucket in self._buckets.values() for e in bucket]
        if self._active is not None:
            now = self._now
            pending.extend(e for e in self._active if e[0] > now)
        for entry in pending:
            try:
                name = entry[2].__name__
            except AttributeError:
                name = "<anonymous>"
            out[name] = out.get(name, 0) + 1
        return out

    @property
    def dispatched_by_kind(self) -> dict[str, int]:
        """Events dispatched so far, keyed by callback name."""
        return dict(self._dispatched_by_kind)

    def schedule(self, t: float, callback: Callable[..., None], *args: Any) -> None:
        """Enqueue ``callback(*args)`` to fire at time ``t``.

        Scheduling into the past is an engine bug and raises immediately —
        silently clamping would hide causality violations.
        """
        if t < self._now:
            raise SimulationError(
                f"event scheduled in the past: {t:.6f} < now {self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = (t, seq, callback, args)
        idx = int(t * self._inv_width)
        if idx == self._active_idx:
            # Mid-drain insert: t >= now and seq is maximal, so the slot
            # is at or after the drain position (see module docstring).
            insort(self._active, entry)
        else:
            bucket = self._buckets.get(idx)
            if bucket is None:
                self._buckets[idx] = [entry]
                heappush(self._bucket_heap, idx)
            else:
                bucket.append(entry)
        n = self._n + 1
        self._n = n
        if n > self._peak:
            self._peak = n

    def run_until(self, t_end: float) -> int:
        """Drain events with time ≤ ``t_end``; returns events processed.

        The drain index is a local: callbacks can only ``insort`` *behind*
        it (their entries carry ``t >= now`` and a maximal sequence number,
        so every already-dispatched entry compares strictly smaller), which
        is why no per-event pointer write-back is needed.  A callback can
        also create a new pending bucket, but only at an index ≥ the active
        one — the outer heap check stays correct mid-drain.
        """
        processed = 0
        buckets = self._buckets
        heap = self._bucket_heap
        counts = self._dispatched_by_kind
        end_idx = int(t_end * self._inv_width)
        while heap and heap[0] <= end_idx:
            idx = heappop(heap)
            run = buckets.pop(idx)
            run.sort()
            self._active = run
            self._active_idx = idx
            i = 0
            # A plain for-loop reads the list by index each step, so
            # entries a callback insorts behind the cursor (always at or
            # after it — see the module docstring) are picked up exactly
            # as the indexed loop this replaces did.
            for entry in run:
                t = entry[0]
                if t > t_end:
                    break
                i += 1
                self._now = t
                callback = entry[2]
                callback(*entry[3])
                self._n -= 1
                try:
                    name = callback.__name__
                except AttributeError:
                    name = "<anonymous>"
                counts[name] = counts.get(name, 0) + 1
            processed += i
            self._active = None
            self._active_idx = -1
            if i < len(run):
                # Horizon hit mid-bucket: push the remainder back so
                # future schedule() calls go through the uniform append
                # path and the next drain re-selects this bucket first.
                buckets[idx] = run[i:]
                heappush(heap, idx)
                break
        if t_end > self._now:
            self._now = t_end
        return processed

    def __len__(self) -> int:
        return self._n

