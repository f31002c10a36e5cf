"""Deterministic event queue."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.streaming.events import DEFAULT_BUCKET_WIDTH_S, EventQueue

from tests.streaming.heap_queue import HeapEventQueue


class TestScheduling:
    def test_fifo_within_same_time(self):
        q = EventQueue()
        order = []
        q.schedule(1.0, order.append, "a")
        q.schedule(1.0, order.append, "b")
        q.schedule(1.0, order.append, "c")
        q.run_until(2.0)
        assert order == ["a", "b", "c"]

    def test_time_ordering(self):
        q = EventQueue()
        order = []
        q.schedule(3.0, order.append, 3)
        q.schedule(1.0, order.append, 1)
        q.schedule(2.0, order.append, 2)
        q.run_until(10.0)
        assert order == [1, 2, 3]

    def test_past_scheduling_rejected(self):
        q = EventQueue()
        q.schedule(5.0, lambda: None)
        q.run_until(5.0)
        with pytest.raises(SimulationError):
            q.schedule(4.0, lambda: None)

    def test_run_until_boundary_inclusive(self):
        q = EventQueue()
        fired = []
        q.schedule(5.0, fired.append, True)
        q.run_until(5.0)
        assert fired == [True]

    def test_events_beyond_horizon_stay_queued(self):
        q = EventQueue()
        fired = []
        q.schedule(5.0, fired.append, 1)
        q.schedule(7.0, fired.append, 2)
        assert q.run_until(6.0) == 1
        assert fired == [1]
        assert len(q) == 1

    def test_now_advances_to_horizon(self):
        q = EventQueue()
        q.run_until(12.5)
        assert q.now == 12.5

    def test_events_can_reschedule(self):
        q = EventQueue()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 5:
                q.schedule(q.now + 1.0, tick)

        q.schedule(0.0, tick)
        q.run_until(100.0)
        assert count[0] == 5

    def test_processed_count(self):
        q = EventQueue()
        for i in range(7):
            q.schedule(float(i), lambda: None)
        assert q.run_until(10.0) == 7


class TestCalendarBuckets:
    """Edge cases specific to the bucketed (calendar) implementation."""

    def test_invalid_bucket_width_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue(bucket_width_s=0.0)
        with pytest.raises(SimulationError):
            EventQueue(bucket_width_s=-1.0)

    def test_horizon_splits_a_bucket(self):
        # Two events in the same 50 ms bucket; the horizon falls between
        # them, so the bucket's remainder must be pushed back and served
        # first by the next drain.
        q = EventQueue()
        fired = []
        q.schedule(1.000, fired.append, "a")
        q.schedule(1.049, fired.append, "b")
        assert q.run_until(1.01) == 1
        assert fired == ["a"]
        assert len(q) == 1
        assert q.run_until(2.0) == 1
        assert fired == ["a", "b"]

    def test_reschedule_into_active_bucket(self):
        # A callback that schedules another event into the *currently
        # draining* bucket: the insort lands behind the cursor and fires
        # within the same run_until call.
        q = EventQueue()
        order = []

        def first():
            order.append("first")
            q.schedule(q.now + DEFAULT_BUCKET_WIDTH_S / 10, second)

        def second():
            order.append("second")

        q.schedule(1.0, first)
        assert q.run_until(2.0) == 2
        assert order == ["first", "second"]

    def test_reschedule_at_exact_now_fires_after_peers(self):
        # Zero-delay reschedules must fire after already-queued events at
        # the same time (larger sequence number), exactly as the heap did.
        q = EventQueue()
        order = []

        def a():
            order.append("a")
            q.schedule(q.now, c)

        def b():
            order.append("b")

        def c():
            order.append("c")

        q.schedule(1.0, a)
        q.schedule(1.0, b)
        q.run_until(2.0)
        assert order == ["a", "b", "c"]

    def test_multiple_run_until_calls_resume_cleanly(self):
        q = EventQueue()
        fired = []
        for i in range(10):
            q.schedule(i * 0.3, fired.append, i)
        total = sum(q.run_until(t) for t in (0.7, 1.5, 1.5, 99.0))
        assert total == 10
        assert fired == list(range(10))

    def test_negative_times_allowed_before_start(self):
        q = EventQueue()
        fired = []
        q.schedule(0.0, fired.append, 0)
        q.run_until(0.0)
        assert fired == [0]


class TestKindCounters:
    def test_dispatched_by_kind(self):
        q = EventQueue()

        def tick():
            pass

        def arrival():
            pass

        for t in (0.1, 0.2, 0.3):
            q.schedule(t, tick)
        q.schedule(0.15, arrival)
        q.run_until(1.0)
        assert q.dispatched_by_kind == {"tick": 3, "arrival": 1}

    def test_scheduled_is_dispatched_plus_pending(self):
        q = EventQueue()

        def tick():
            pass

        for t in (0.1, 0.2, 5.0, 6.0):
            q.schedule(t, tick)
        q.run_until(1.0)
        assert q.dispatched_by_kind == {"tick": 2}
        assert q.scheduled_by_kind == {"tick": 4}

    def test_anonymous_callbacks_counted(self):
        q = EventQueue()
        from functools import partial

        q.schedule(0.1, partial(int, "7"))
        q.run_until(1.0)
        assert q.dispatched_by_kind == {"<anonymous>": 1}


class TestDifferentialVsHeap:
    """Randomized workloads must dispatch identically on both queues."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("width", [DEFAULT_BUCKET_WIDTH_S, 0.013, 1.7])
    def test_same_dispatch_order(self, seed, width):
        def drive(queue):
            rng = np.random.default_rng(seed)
            order = []

            def fire(tag):
                order.append((round(queue.now, 9), tag))
                # Occasionally chain-schedule, including zero delay.
                if rng.random() < 0.3:
                    delay = float(rng.choice([0.0, 0.001, 0.05, 0.4]))
                    queue.schedule(queue.now + delay, fire, tag + 1000)

            for i in range(200):
                queue.schedule(float(rng.uniform(0.0, 10.0)), fire, i)
            horizons = [2.5, 2.5, 7.0, 50.0]
            processed = [queue.run_until(h) for h in horizons]
            return order, processed, len(queue)

        heap_run = drive(HeapEventQueue())
        calendar_run = drive(EventQueue(bucket_width_s=width))
        assert calendar_run == heap_run
