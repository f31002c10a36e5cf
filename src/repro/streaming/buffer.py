"""The probes' playout buffers, as shared bitmaps.

A live-streaming peer tries to hold every chunk inside a window trailing
the live edge; chunks older than the window are evicted (played out).
The buffer answers "which chunks am I missing" for the request scheduler
and serves as the ground-truth buffer map advertised to partners.

All probes' buffers live in two ``(n_probes, capacity)`` boolean
matrices — ``have`` (held) and ``inflight`` (requested or pushed, not yet
arrived) — so the engine's per-tick kernels can read many probes' state
in one array operation.

Memory layout
-------------
Rows use a **sliding base**: probe ``pi``'s bit for chunk ``c`` lives at
column ``c - base[pi]``.  When the live edge outruns the row, the row
either *shifts* (slides left so the base catches up to the eviction
frontier minus a safety margin) or *widens* (every row reallocates to a
larger capacity — the resize-on-churn path).  Set bits that slide off the
left edge are rescued into a per-probe Python ``low`` set, so membership
answers stay exact regardless of margin sizing.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

#: Always-False guard columns past each bitmap row's capacity.  The
#: availability gather clamps its slot index to the first guard column
#: instead of masking out-of-range slots — "past the row top" then reads
#: as "not held" with zero extra array ops.
_GUARD = 8


def window_chunks(window_s: float, interval: float) -> int:
    """Width in chunks of a ``window_s``-second playout window (at least one)."""
    return max(1, int(window_s / interval))


def _holes(seg: bytes, lo: int, hi: int, offset: int, limit: int | None) -> list[int]:
    """Positions of the zero bytes of ``seg[lo:hi]``, newest first.

    Each position ``i`` is reported as chunk id ``offset + i``; the scan
    stops after ``limit`` holes.  Steady-state windows hold a handful of
    holes, so a few C-level ``rfind`` calls beat a chain of numpy ops.
    """
    out: list[int] = []
    i = seg.rfind(0, lo, hi)
    while i >= 0 and (limit is None or len(out) < limit):
        out.append(offset + i)
        i = seg.rfind(0, lo, i)
    return out


class SoAState:
    """Shared buffer / in-flight bitmaps for all probes of one run.

    ``have[pi, c - base[pi]]`` — probe ``pi`` holds chunk ``c``;
    ``inflight[pi, c - base[pi]]`` — a request/push for ``c`` is pending.
    ``base``/``evicted_to``/``inflight_n`` are plain Python lists (scalar
    hot-path reads); ``low`` holds rescued chunk ids below each base.
    ``shifts``/``resizes`` count the row-slide and reallocation events
    (exposed for the unit tests and engine stats).
    """

    def __init__(
        self, n_probes: int, window_chunks: int, interval: float, margin: int
    ) -> None:
        if window_chunks < 1:
            raise SimulationError("buffer window must be positive")
        self.n = n_probes
        self.window_chunks = window_chunks
        self.interval = interval
        self.margin = margin
        self.capacity = window_chunks + margin + 64
        # _GUARD always-False columns trail every row (see module top);
        # all writes stay below ``capacity``, so they never flip.
        self.have = np.zeros((n_probes, self.capacity + _GUARD), dtype=bool)
        self.inflight = np.zeros((n_probes, self.capacity + _GUARD), dtype=bool)
        self.base: list[int] = [0] * n_probes
        #: Same values as ``base``, kept as an int64 vector so the
        #: availability kernel can gather partner bases in one index.
        self.base_arr = np.zeros(n_probes, dtype=np.int64)
        self.evicted_to: list[int] = [0] * n_probes
        self.inflight_n: list[int] = [0] * n_probes
        self.low: list[set[int]] = [set() for _ in range(n_probes)]
        self.shifts = 0
        self.resizes = 0

    # ------------------------------------------------------------ membership
    def has(self, pi: int, chunk: int) -> bool:
        """Whether probe ``pi`` holds ``chunk`` (late arrivals included)."""
        s = chunk - self.base[pi]
        if s < 0:
            return chunk in self.low[pi]
        return s < self.capacity and bool(self.have[pi, s])

    def have_add(self, pi: int, chunk: int) -> None:
        """Record a received chunk (idempotent)."""
        s = chunk - self.base[pi]
        if s < 0:
            # Below the row base: a late arrival parks in the low set and
            # stays visible until the next floor advance.
            self.low[pi].add(chunk)
            return
        if s >= self.capacity:
            self._make_room(pi, chunk)
            s = chunk - self.base[pi]
        self.have[pi, s] = True

    def inflight_has(self, pi: int, chunk: int) -> bool:
        s = chunk - self.base[pi]
        return 0 <= s < self.capacity and bool(self.inflight[pi, s])

    def inflight_add(self, pi: int, chunk: int) -> None:
        s = chunk - self.base[pi]
        if s < 0:
            # Requests are always at/above the window floor ≥ base; a
            # negative slot means the sliding-base invariant broke.
            raise SimulationError("in-flight chunk below the row base")
        if s >= self.capacity:
            self._make_room(pi, chunk)
            s = chunk - self.base[pi]
        if not self.inflight[pi, s]:
            self.inflight[pi, s] = True
            self.inflight_n[pi] += 1

    def inflight_discard(self, pi: int, chunk: int) -> None:
        s = chunk - self.base[pi]
        if 0 <= s < self.capacity and self.inflight[pi, s]:
            self.inflight[pi, s] = False
            self.inflight_n[pi] -= 1

    # ------------------------------------------------------------- tick scan
    def _evict(self, pi: int, floor: int) -> None:
        """Advance probe ``pi``'s eviction frontier to ``floor``.

        Prefix-wipes the held and in-flight bits below the floor (with
        ``inflight_n`` adjusted by the bits cleared) and prunes the
        rescued low set.  Shared by the per-probe and cohort scans.
        """
        if floor > self.evicted_to[pi]:
            cut = floor - self.base[pi]
            if cut > 0:
                if cut > self.capacity:
                    cut = self.capacity
                self.have[pi, :cut] = False
                if self.inflight_n[pi]:
                    infl_row = self.inflight[pi]
                    dropped = int(np.count_nonzero(infl_row[:cut]))
                    if dropped:
                        self.inflight_n[pi] -= dropped
                        infl_row[:cut] = False
            low = self.low[pi]
            if low:
                self.low[pi] = {c for c in low if c >= floor}
            self.evicted_to[pi] = floor

    def window_floor(self, t: float) -> int:
        """The oldest chunk id inside the playout window at ``t``."""
        floor = int(t / self.interval) - self.window_chunks + 1
        return floor if floor > 0 else 0

    def tick_scan(
        self, pi: int, t: float, live_lag: int, limit: int | None
    ) -> tuple[int, list[int]]:
        """Evict + missing scan for one probe.

        Returns the window floor and the missing (not held, not in
        flight) chunks of ``[floor, live - live_lag]`` newest-first,
        truncated to the newest ``limit``.  Holes are derived statelessly
        — for ids at/above the floor, *missing* ≡ *bit not set* — because
        held bits are only ever cleared by the eviction prefix wipe below
        the floor.
        """
        live = int(t / self.interval)
        floor = live - self.window_chunks + 1
        if floor < 0:
            floor = 0
        self._evict(pi, floor)
        b = self.base[pi]
        newest = live - live_lag
        lo = floor - b
        hi = newest + 1 - b
        if hi <= lo:
            return floor, []
        if hi > self.capacity:
            # Starvation-safe: grow/slide before scanning so the window
            # always fits (a partnerless probe never sets bits, so only
            # the scan itself advances its base).
            self._make_room(pi, newest)
            b = self.base[pi]
            lo = floor - b
            hi = newest + 1 - b
        seg = (self.have[pi, lo:hi] | self.inflight[pi, lo:hi]).tobytes()
        return floor, _holes(seg, 0, len(seg), floor, limit)

    def tick_scan_all(
        self, t: float, live_lag: int, limit: int | None
    ) -> tuple[int, int, list[list[int]]]:
        """Evict + missing scan for *every* probe in one batched pass.

        The cohort-tick twin of :meth:`tick_scan`: the window floor and
        the scan top are probe-independent (every probe shares the live
        clock), so after the per-row eviction sweep the held∣in-flight
        segment of all rows is fetched with **one** 2-D gather instead of
        ``n`` per-row slice pairs.  Returns ``(floor, newest, holes)``
        with one hole list per probe row — each exactly what
        :meth:`tick_scan` would have produced for that row (same bits,
        same truncation, same newest-first order).
        """
        live = int(t / self.interval)
        floor = live - self.window_chunks + 1
        if floor < 0:
            floor = 0
        n = self.n
        for pi in range(n):
            self._evict(pi, floor)
        newest = live - live_lag
        if newest + 1 <= floor:
            return floor, newest, [[] for _ in range(n)]
        for pi in range(n):
            if newest + 1 - self.base[pi] > self.capacity:
                self._make_room(pi, newest)
        # After eviction the base invariant ``base ≤ evicted_to = floor``
        # holds for every row and make_room covered the top, so every
        # gathered slot index sits in ``[0, capacity)``.
        cols = (
            np.arange(floor, newest + 1, dtype=np.int64)[None, :]
            - self.base_arr[:, None]
        )
        ridx = np.arange(n)[:, None]
        held = (self.have[ridx, cols] | self.inflight[ridx, cols]).tobytes()
        w = newest + 1 - floor
        return floor, newest, [
            _holes(held, pi * w, (pi + 1) * w, floor - pi * w, limit)
            for pi in range(n)
        ]

    # ------------------------------------------------------------ reshaping
    def _make_room(self, pi: int, top_chunk: int) -> None:
        """Make ``top_chunk`` addressable for probe ``pi``.

        First choice is a row *shift* (slide the base up to the eviction
        frontier minus the margin); when even that cannot fit the chunk,
        every row *widens* to the next power-of-two-ish capacity (churn
        storms stall eviction frontiers, so one probe's backlog can force
        the shared reallocation — the resize-on-churn test path).
        """
        b = self.base[pi]
        new_base = self.evicted_to[pi] - self.margin
        if new_base < b:
            new_base = b
        if top_chunk - new_base >= self.capacity:
            need = top_chunk - new_base + 1 + 64
            new_cap = self.capacity
            while new_cap < need:
                new_cap *= 2
            pad = np.zeros((self.n, new_cap - self.capacity), dtype=bool)
            self.have = np.concatenate([self.have, pad], axis=1)
            self.inflight = np.concatenate([self.inflight, pad.copy()], axis=1)
            self.capacity = new_cap
            self.resizes += 1
        shift = new_base - b
        if shift > 0:
            cap = self.capacity
            have_row = self.have[pi]
            infl_row = self.inflight[pi]
            if shift < cap:
                # Rescue still-set bits sliding off the left edge: they are
                # late arrivals below the frontier, which stay visible
                # until the next floor advance.
                if have_row[:shift].any():
                    ids = np.flatnonzero(have_row[:shift]) + b
                    self.low[pi].update(ids.tolist())
                dropped = int(np.count_nonzero(infl_row[:shift]))
                if dropped:  # provably unreachable; keeps the count exact
                    self.inflight_n[pi] -= dropped
                have_row[: cap - shift] = have_row[shift:cap].copy()
                have_row[cap - shift : cap] = False
                infl_row[: cap - shift] = infl_row[shift:cap].copy()
                infl_row[cap - shift : cap] = False
            else:
                if have_row.any():
                    ids = np.flatnonzero(have_row) + b
                    self.low[pi].update(ids.tolist())
                self.inflight_n[pi] -= int(np.count_nonzero(infl_row))
                have_row[:] = False
                infl_row[:] = False
            self.base[pi] = new_base
            self.base_arr[pi] = new_base
            self.shifts += 1
