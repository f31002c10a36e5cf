"""Sliding playout buffer laws, on the shared bitmaps (one probe row)."""

import pytest

from repro.errors import SimulationError
from repro.streaming.buffer import SoAState, window_chunks
from repro.streaming.chunk import ChunkClock
from repro.units import kbps


@pytest.fixture()
def clock() -> ChunkClock:
    return ChunkClock(rate_bps=kbps(384), chunk_bytes=16_000)


@pytest.fixture()
def buf(clock) -> SoAState:
    return SoAState(1, window_chunks(10.0, clock.chunk_interval), clock.chunk_interval, 8)


def holes(buf: SoAState, t: float, live_lag: int = 0) -> list[int]:
    return buf.tick_scan(0, t, live_lag, None)[1]


class TestWindow:
    def test_window_chunks(self, buf):
        assert buf.window_chunks == 30  # 10 s at 3 chunks/s

    def test_window_range_at_start(self, buf):
        assert holes(buf, 1.0)[0] == 3  # live edge
        assert buf.window_floor(1.0) == 0  # clipped at the stream start

    def test_window_slides(self, buf):
        assert holes(buf, 60.0)[0] == 180
        assert buf.window_floor(60.0) == 180 - 30 + 1

    def test_bad_window_rejected(self, clock):
        with pytest.raises(SimulationError):
            SoAState(1, 0, clock.chunk_interval, 8)


class TestAddEvict:
    def test_add_and_has(self, buf):
        buf.have_add(0, 5)
        assert buf.has(0, 5)
        assert not buf.has(0, 6)

    def test_duplicate_add_rejected(self, buf):
        buf.have_add(0, 5)
        buf.have_add(0, 5)
        assert int(buf.have.sum()) == 1

    def test_evict_before(self, buf):
        for c in range(10):
            buf.have_add(0, c)
        floor, _ = buf.tick_scan(0, 60.0, 0, None)
        assert floor == 151
        assert not any(buf.has(0, c) for c in range(10))
        assert not buf.have.any()


class TestMissing:
    def test_newest_first(self, buf):
        missing = holes(buf, 2.0)
        assert missing[0] == 6  # live edge at t=2
        assert missing == sorted(missing, reverse=True)

    def test_excludes_held_and_inflight(self, buf):
        buf.have_add(0, 6)
        buf.inflight_add(0, 5)
        missing = holes(buf, 2.0)
        assert 6 not in missing and 5 not in missing

    def test_live_lag_skips_newest(self, buf):
        assert holes(buf, 2.0, live_lag=2)[0] == 4

    def test_live_lag_zero_default(self, buf):
        assert holes(buf, 2.0)[0] == 6

    def test_empty_when_all_held(self, buf):
        for c in range(buf.window_floor(2.0), 7):
            buf.have_add(0, c)
        assert holes(buf, 2.0) == []
