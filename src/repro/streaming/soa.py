"""Struct-of-arrays engine core (the ROADMAP's order-of-magnitude step).

The object engine keeps one :class:`~repro.streaming.buffer.PlayoutBuffer`
and one Python in-flight set per probe; every tick walks Python sets and
per-chunk threshold lists.  This module restructures that per-probe state
into **shared numpy arrays** — one ``have`` bitmap row and one ``inflight``
bitmap row per probe inside two ``(n_probes, capacity)`` matrices — so the
per-tick hole scan and the per-chunk provider-candidate enumeration become
array kernels instead of N nested Python loops.

Byte-identity contract
----------------------
The SoA engine must produce **byte-identical traces** to the object engine
for a fixed seed, under every app profile and every chunk scheduler.  The
golden SHA-256 hashes (``tests/golden/*.json``) and the randomized
differential suite (``tests/streaming/test_soa_differential.py``) enforce
it.  The rules the kernels obey (see ``docs/engine-internals.md``):

* RNG draws happen at exactly the object code's decision points — empty
  candidate sets are skipped *without* a draw, so vectorised pre-filtering
  must be side-effect free;
* candidate (holder) order is the ascending partner-column order of the
  object scan, which ``np.flatnonzero`` / enumerate preserve;
* all floating-point comparisons use the same IEEE-754 operations in the
  same order (``np.maximum(gen + delay, ready)`` is elementwise-identical
  to the scalar ``r if r > gen + d else gen + d``);
* chunk membership below a probe's eviction frontier follows the object
  buffer's late-arrival semantics (visible until the *next* floor advance).

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
from repro.streaming.engine import (
    _KIND_CONTROL,
    _KIND_VIDEO,
    _PARTNER_CTX_MAX,
    REQUEST_BYTES,
    Engine,
    _PeerState,
)
from repro.units import BITS_PER_BYTE

#: Extra chunk-range coverage built into each availability-threshold
#: matrix, so the per-tick lookup only rebuilds when the live edge crosses
#: the covered top (amortises the vectorised rebuild over many ticks).
_THR_SLACK = 256

#: Always-False guard columns past each bitmap row's capacity.  The
#: availability gather clamps its slot index to the first guard column
#: instead of masking out-of-range slots — "past the row top" then reads
#: as "not held" with zero extra array ops.
_GUARD = 8

#: Blockwise availability evaluation (lazy peer-state mode): threshold
#: rows are grouped into fixed chunk-id spans of this many rows, built on
#: first touch and reused across ticks — the thresholds are t-independent
#: chunk constants, so a cached block is bit-for-bit the rows the per-tick
#: rebuild would produce.
_THR_BLOCK = 64

#: Eviction budget for the block cache, in blocks.  The live window walks
#: upward, so the lowest block id is evicted first; an evicted block that
#: is touched again rebuilds bit-identically (memory-only bound).
_THR_BLOCKS_MAX = 8


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
        #: Last tick_scan result, list and array form.  The scheduler
        #: kernels check ``lookahead is scan_list`` to reuse the array
        #: without re-converting (identity ⇒ same scan, same order).
        self.scan_list: list[int] = []
        self.scan_arr = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------ membership
    def has(self, pi: int, chunk: int) -> bool:
        """Whether probe ``pi`` holds ``chunk`` (late arrivals included)."""
        s = chunk - self.base[pi]
        if s < 0:
            return chunk in self.low[pi]
        return s < self.capacity and bool(self.have[pi, s])

    def have_add(self, pi: int, chunk: int) -> None:
        """Record a received chunk (idempotent, like ``PlayoutBuffer.add``)."""
        s = chunk - self.base[pi]
        if s < 0:
            # Below the row base: the object buffer parks such late
            # arrivals too; they stay visible until the next floor advance.
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

        Prefix-wipes the held and in-flight bits below the floor (the
        object buffer's eviction plus the engine's in-flight rebuild,
        with ``inflight_n`` adjusted by the bits cleared) and prunes the
        rescued low set.  Shared by the per-probe and cohort scans.
        """
        if floor > self.evicted_to[pi]:
            cut = floor - self.base[pi]
            if cut > 0:
                if cut > self.capacity:
                    cut = self.capacity
                infl_row = self.inflight[pi]
                dropped = int(np.count_nonzero(infl_row[:cut]))
                if dropped:
                    self.inflight_n[pi] -= dropped
                self.have[pi, :cut] = False
                infl_row[:cut] = False
            low = self.low[pi]
            if low:
                self.low[pi] = {c for c in low if c >= floor}
            self.evicted_to[pi] = floor

    def tick_scan(
        self, pi: int, t: float, live_lag: int, limit: int | None
    ) -> tuple[int, list[int]]:
        """Evict + missing scan for one probe, array-at-a-time.

        Semantics twin of ``PlayoutBuffer.tick_scan``: returns the window
        floor and the missing (not held, not in flight) chunks of
        ``[floor, live - live_lag]`` newest-first, truncated to the newest
        ``limit``.  Holes are derived statelessly — for ids at/above the
        floor, *missing* ≡ *bit not set* — because held bits are only ever
        cleared by the eviction prefix wipe below the floor, exactly when
        the object buffer evicts.
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
        seg = self.have[pi, lo:hi] | self.inflight[pi, lo:hi]
        missing = (~seg).nonzero()[0]
        if limit is not None and missing.size > limit:
            missing = missing[missing.size - limit :]
        arr = missing[::-1] + floor
        out = arr.tolist()
        self.scan_arr = arr
        self.scan_list = out
        return floor, out

    def tick_scan_all(
        self, t: float, live_lag: int, limit: int | None
    ) -> tuple[int, int, list[tuple[list[int], np.ndarray]]]:
        """Evict + missing scan for *every* probe in one batched pass.

        The cohort-tick twin of :meth:`tick_scan`: the window floor and
        the scan top are probe-independent (every probe shares the live
        clock), so after the per-row eviction sweep the held∣in-flight
        segment of all rows is fetched with **one** 2-D gather instead of
        ``n`` per-row slice pairs.  Returns ``(floor, newest, results)``
        with one ``(hole_list, hole_array)`` pair per probe row — each
        pair exactly what :meth:`tick_scan` would have produced for that
        row (same bits, same truncation, same newest-first order), so the
        cohort engine can replay them probe-by-probe byte-identically.
        Unlike :meth:`tick_scan` this does **not** update ``scan_list``/
        ``scan_arr``; the cohort driver installs each pair right before
        the per-probe scheduler call.
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
            empty = np.empty(0, dtype=np.int64)
            return floor, newest, [([], empty) for _ in range(n)]
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
        miss = ~(self.have[ridx, cols] | self.inflight[ridx, cols])
        results: list[tuple[list[int], np.ndarray]] = []
        for pi in range(n):
            missing = miss[pi].nonzero()[0]
            if limit is not None and missing.size > limit:
                missing = missing[missing.size - limit :]
            arr = missing[::-1] + floor
            results.append((arr.tolist(), arr))
        return floor, newest, results

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
                # late arrivals below the frontier that the object buffer
                # keeps visible until the next floor advance.
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


class _ChunkSetView:
    """Set-like read view of one probe's held chunks.

    Compatibility surface for code written against the object buffer's
    ``chunk_set`` (the remote-pull membership scan, the epidemic push's
    duplicate check, ``_partner_context``, the instrumented test
    schedulers).  Hot SoA kernels read the arrays directly instead.
    """

    __slots__ = ("_soa", "_pi")

    def __init__(self, soa: SoAState, pi: int) -> None:
        self._soa = soa
        self._pi = pi

    def __contains__(self, chunk: int) -> bool:
        return self._soa.has(self._pi, chunk)

    def __len__(self) -> int:
        soa = self._soa
        return int(np.count_nonzero(soa.have[self._pi])) + len(soa.low[self._pi])

    def __iter__(self):
        soa = self._soa
        yield from sorted(soa.low[self._pi])
        yield from (np.flatnonzero(soa.have[self._pi]) + soa.base[self._pi]).tolist()

    def __bool__(self) -> bool:
        return len(self) > 0


class _InflightView:
    """Set-like view of one probe's in-flight row (adds/discards included)."""

    __slots__ = ("_soa", "_pi")

    def __init__(self, soa: SoAState, pi: int) -> None:
        self._soa = soa
        self._pi = pi

    def __contains__(self, chunk: int) -> bool:
        return self._soa.inflight_has(self._pi, chunk)

    def add(self, chunk: int) -> None:
        self._soa.inflight_add(self._pi, chunk)

    def discard(self, chunk: int) -> None:
        self._soa.inflight_discard(self._pi, chunk)

    def __len__(self) -> int:
        return self._soa.inflight_n[self._pi]

    def __iter__(self):
        soa = self._soa
        yield from (
            np.flatnonzero(soa.inflight[self._pi]) + soa.base[self._pi]
        ).tolist()

    def __bool__(self) -> bool:
        return self._soa.inflight_n[self._pi] > 0


class _SoABuffer:
    """PlayoutBuffer-shaped facade over one probe's array row."""

    __slots__ = ("_soa", "_pi", "chunk_set")

    def __init__(self, soa: SoAState, pi: int) -> None:
        self._soa = soa
        self._pi = pi
        self.chunk_set = _ChunkSetView(soa, pi)

    @property
    def window_chunks(self) -> int:
        return self._soa.window_chunks

    def window_range(self, t: float) -> range:
        soa = self._soa
        live = int(t / soa.interval)
        oldest = live - soa.window_chunks + 1
        if oldest < 0:
            oldest = 0
        return range(oldest, live + 1)

    def has(self, chunk: int) -> bool:
        return self._soa.has(self._pi, chunk)

    def add(self, chunk: int) -> bool:
        held = self._soa.has(self._pi, chunk)
        self._soa.have_add(self._pi, chunk)
        return not held

    def __len__(self) -> int:
        return len(self.chunk_set)


class SoAProbe(_PeerState):
    """Probe state as a row index into the shared arrays.

    ``pi`` is the probe index (``gidx - n_remote``) — also the row in
    ``SoAState.have``/``inflight`` and every per-probe score matrix.
    ``buffer``/``chunks``/``inflight`` are the compatibility views.
    """

    __slots__ = ("pi", "buffer", "chunks", "inflight")

    def __init__(
        self, gidx: int, pi: int, soa: SoAState, n_peers: int, lazy: bool = False
    ) -> None:
        super().__init__(gidx, n_peers, lazy)
        self.pi = pi
        self.buffer = _SoABuffer(soa, pi)
        self.chunks = self.buffer.chunk_set
        self.inflight = _InflightView(soa, pi)


class SoAEngine(Engine):
    """The struct-of-arrays engine core.

    Same protocol, same RNG streams, same event handlers (by name — the
    queue's per-kind counters stay comparable) as :class:`Engine`; only
    the per-probe buffer state and the per-tick scan/candidate kernels
    change representation.  Byte-identical by the golden-hash suites.
    """

    mode = "soa"

    def _make_probes(self, n_peers: int) -> list[_PeerState]:
        video = self.profile.video
        interval = self.clock.chunk_interval
        # Same expression as PlayoutBuffer's window width.
        window_chunks = max(1, int(video.buffer_window_s / interval))
        # Margin below the eviction frontier kept addressable in-row: the
        # longest a request can stay in flight (uplink backlog + slowest
        # serialisation + latency slack), in chunks.  Purely a performance
        # knob — bits that do slide off are rescued into the low sets.
        slowest = self.clock.chunk_bytes * BITS_PER_BYTE / float(self._up.min())
        margin = int((self.config.max_backlog_s + slowest + 0.2) / interval) + 4
        if margin > 4096:
            margin = 4096
        self._soa = SoAState(self.n_probe, window_chunks, interval, margin)
        #: Per-probe SoA partner-context memos (bounded like the object
        #: engine's _partner_ctx; entries rebuild bit-identically on miss).
        self._soa_ctx: list[dict[bytes, dict]] = [{} for _ in range(self.n_probe)]
        return [
            SoAProbe(self.n_remote + k, k, self._soa, n_peers, self._lazy)
            for k in range(self.n_probe)
        ]

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Route ticks through the scheduler's vectorised entry point.
        self._sched_requests = self._scheduler.schedule_requests_soa
        #: Cohort-tick availability state: ``_cohort_serial`` bumps once
        #: per cohort build, ``_cohort_t``/``_cohort_floor`` stamp the
        #: tick it covers.  A ctx whose ``cohort_serial`` matches holds a
        #: prebuilt full-range availability block for this very tick, so
        #: the per-probe scheduler call reduces to one row gather.
        self._cohort_serial = 0
        self._cohort_t = -1.0
        self._cohort_floor = 0
        #: Stacked remote scalars for the cohort build, memoised by the
        #: participating ctxs' creation uids (collision-free, unlike
        #: ``id()`` which the allocator recycles).
        self._cohort_scalars_key: tuple = ()
        self._cohort_delays: np.ndarray | None = None
        self._cohort_ready: np.ndarray | None = None
        self._ctx_uid = 0
        #: Last ctx handed to a cohort work item — the scheduler's own
        #: lookup for the same (probe, partners) pair short-circuits to
        #: a pointer compare.
        self._ctx_hint: dict | None = None
        self._ctx_hint_pi = -1
        self._ctx_hint_partners: np.ndarray | None = None
        #: Per-probe (partners, ctx) memo for the cohort scan pass.
        self._pi_ctx: list = [None] * len(self._probes)
        #: Blockwise availability cache (lazy mode): block id → threshold
        #: block over the stacked cohort scalars.  Cleared whenever the
        #: participating ctx set (and so the column stacking) changes.
        self._thr_blocks: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------- event core
    def _tick_probe(self, probe: SoAProbe, t: float) -> None:
        soa = self._soa
        pi = probe.pi
        # Evict + in-flight prune + missing scan, one array pass (the
        # object engine's tick_scan plus its inflight-rebuild branch).
        floor, lookahead = soa.tick_scan(pi, t, self._live_lag, self._scan_limit)
        if lookahead and probe.partners:
            online = self._online_mask(t)
            partners = probe.online_partners(online, self._mask_key)
            slots = self._max_parallel - soa.inflight_n[pi]
            if slots > 0 and len(partners):
                self._sched_requests(probe, t, lookahead, partners, slots)

    def _on_tick_cohort(self) -> None:
        """Tick the whole probe cohort through batched array kernels.

        Trace-equivalent to the parent's probe-by-probe loop (pinned by
        the cohort differential suite) but restructured into two passes
        so the per-tick numpy dispatches amortise across probes:

        1. **Scan pass** — one multi-row evict+scan
           (:meth:`SoAState.tick_scan_all`) replaces ``n`` per-probe row
           slices; the per-probe hole lists, online partner sets and free
           request slots are collected as work items.
        2. **Schedule pass** — :meth:`_cohort_build` precomputes every
           work item's availability block over the union of the actual
           hole ranges (per-ctx threshold compares, plus one shared 2-D
           bitmap gather covering all probe-partner columns of all
           items), then the schedulers run in ascending probe order — the object cohort's
           order, so the RNG stream and event insertion order are
           untouched.

        Reordering scans before schedules is trace-invariant: a scan
        only mutates its own row below the shared floor (never scanned
        by others) and draws no randomness, so no schedule can observe
        the difference.
        """
        t = self._queue.now
        soa = self._soa
        floor, newest, scans = soa.tick_scan_all(t, self._live_lag, self._scan_limit)
        works = []
        online = None
        for probe in self._probes:
            out, arr = scans[probe.pi]
            if out and probe.partners:
                if online is None:
                    online = self._online_mask(t)
                partners = probe.online_partners(online, self._mask_key)
                slots = self._max_parallel - soa.inflight_n[probe.pi]
                if slots > 0 and len(partners):
                    # Per-probe ctx memo: ``online_partners`` returns the
                    # same array object while the online mask and partner
                    # set are unchanged, so successive ticks short-circuit
                    # the bytes-key lookup to one pointer compare.
                    pair = self._pi_ctx[probe.pi]
                    if pair is not None and pair[0] is partners:
                        ctx = pair[1]
                    else:
                        ctx = self._soa_partner_ctx(probe.pi, partners)
                        self._pi_ctx[probe.pi] = (partners, ctx)
                    works.append((probe, out, arr, partners, slots, ctx))
        if works:
            # Shrink coverage from [floor, newest] to the union of the
            # works' actual hole ranges (hole arrays are newest-first, so
            # arr[-1]/arr[0] bound each probe's holes).  At steady state
            # holes cluster within a few chunks of the live edge while
            # the scan window spans ~window_chunks, so this cuts the
            # block build by an order of magnitude.  Per-chunk threshold
            # and bitmap values are independent of the range start, so
            # the precomputed blocks stay byte-identical.
            cmin = min(int(w[2][-1]) for w in works)
            cmax = max(int(w[2][0]) for w in works)
            self._cohort_build(t, cmin, cmax, works)
            for probe, out, arr, partners, slots, ctx in works:
                # Install the probe's scan pair so the scheduler's
                # ``lookahead is scan_list`` reuse keeps working, and
                # hint the ctx so the scheduler's own lookup is a
                # pointer compare instead of a bytes-key dict probe.
                soa.scan_list = out
                soa.scan_arr = arr
                self._ctx_hint_pi = probe.pi
                self._ctx_hint_partners = partners
                self._ctx_hint = ctx
                self._sched_requests(probe, t, out, partners, slots)
        self._queue.schedule(t + self._tick_interval, self._cb_tick_cohort)

    def _cohort_build(self, t: float, floor: int, newest: int, works: list) -> None:
        """Precompute availability blocks for one cohort tick.

        ``[floor, newest]`` is the chunk range to cover — the caller
        passes the union of the works' hole ranges, not the whole scan
        window, so the span is a handful of rows at steady state.  Both
        column families batch across the whole cohort:

        * **Probe columns** — one 2-D fancy gather over the shared
          bitmaps covering every ctx's probe-partner rows.
        * **Remote columns** — one stacked threshold matrix over every
          ctx's remote scalars (the per-ctx ``delays``/``ready`` vectors
          concatenated once and memoised by ctx identity), compared
          against ``t`` in a single elementwise pass.  The freshness
          deadline ``gen + retention`` depends only on the chunk id, so
          one span-length vector masks all ctxs at once.

        Each ctx then gets its ``cohort_A`` block — remote columns
        first, probe columns after, the exact column layout of
        :meth:`_soa_availability` — as two views into the stacked
        matrices plus one concatenate.  The per-chunk values are
        elementwise the ones the slow path would compute (same threshold
        doubles, same IEEE compares), so the row-gather fast path is
        byte-identical.
        """
        soa = self._soa
        self._cohort_serial += 1
        serial = self._cohort_serial
        ci = self._av_chunk_interval
        retention = self._av_retention
        check_fresh = retention < soa.window_chunks * ci
        ctxs = []
        for work in works:
            ctx = work[5]
            if ctx["cohort_serial"] != serial:
                ctx["cohort_serial"] = serial
                ctxs.append(ctx)
        pcols = [c["probe_rows_arr"] for c in ctxs if c["probe_rows_arr"].size]
        PB = None
        if pcols:
            all_rows = np.concatenate(pcols)
            S = (
                np.arange(floor, newest + 1, dtype=np.int64)[:, None]
                - soa.base_arr[all_rows][None, :]
            )
            PB = soa.have[all_rows[None, :], np.minimum(S, soa.capacity)]
        rctxs = [c for c in ctxs if c["n_rem"]]
        AV = None
        if rctxs:
            key = tuple(c["uid"] for c in rctxs)
            if key != self._cohort_scalars_key:
                self._cohort_scalars_key = key
                self._cohort_delays = np.concatenate(
                    [c["delays"] for c in rctxs]
                )
                self._cohort_ready = np.concatenate([c["ready"] for c in rctxs])
                self._thr_blocks.clear()
            gens = np.arange(floor, newest + 1, dtype=np.float64) * ci
            if self._lazy:
                # Blockwise path: thresholds are t-independent chunk
                # constants, so rows persist across ticks in fixed-span
                # blocks and only the boolean compare runs per tick.
                thr = self._thr_window(floor, newest, ci)
            else:
                thr = np.maximum(
                    gens[:, None] + self._cohort_delays[None, :],
                    self._cohort_ready[None, :],
                )
            AV = thr <= t
            if check_fresh:
                AV &= (gens + retention > t)[:, None]
        roff = poff = 0
        for ctx in ctxs:
            avail = pb = None
            n = ctx["n_rem"]
            if n:
                avail = AV[:, roff : roff + n]
                roff += n
            k = ctx["probe_rows_arr"].size
            if k:
                pb = PB[:, poff : poff + k]
                poff += k
            if avail is None:
                ctx["cohort_A"] = pb
            elif pb is None:
                ctx["cohort_A"] = avail
            else:
                ctx["cohort_A"] = np.concatenate((avail, pb), axis=1)
        self._cohort_t = t
        self._cohort_floor = floor

    def _thr_window(self, floor: int, newest: int, ci: float) -> np.ndarray:
        """Assemble ``[floor, newest]`` threshold rows from cached blocks.

        Each block covers chunk ids ``[b·B, (b+1)·B)`` against the current
        stacked cohort scalars.  A block row for chunk ``c`` is
        ``max(c·ci + delay, ready)`` — ``np.arange(lo, lo + B) * ci``
        produces the same ``c·ci`` doubles as the window-wide arange, and
        ``np.maximum`` is elementwise, so the assembled window is
        bit-for-bit the matrix the eager path builds per tick.  The live
        window only walks upward, so eviction drops the lowest block id;
        a re-touched block rebuilds identically (memory-only bound).
        """
        blocks = self._thr_blocks
        b0 = floor // _THR_BLOCK
        b1 = newest // _THR_BLOCK
        parts = []
        for b in range(b0, b1 + 1):
            blk = blocks.get(b)
            if blk is None:
                lo = b * _THR_BLOCK
                gens_b = np.arange(lo, lo + _THR_BLOCK, dtype=np.float64) * ci
                blk = np.maximum(
                    gens_b[:, None] + self._cohort_delays[None, :],
                    self._cohort_ready[None, :],
                )
                while len(blocks) >= _THR_BLOCKS_MAX:
                    blocks.pop(min(blocks))
                blocks[b] = blk
            parts.append(blk)
        stack = parts[0] if len(parts) == 1 else np.concatenate(parts)
        lo0 = b0 * _THR_BLOCK
        return stack[floor - lo0 : newest + 1 - lo0]

    def _on_chunk_arrival(self, probe: SoAProbe, chunk: int, provider: int) -> None:
        soa = self._soa
        pi = probe.pi
        soa.inflight_discard(pi, chunk)
        soa.have_add(pi, chunk)
        if probe.busy[provider] > 0:
            probe.busy[provider] -= 1
            if probe.busy[provider] < self._cap_out:
                probe.busy_over.discard(provider)
        if self._sched_push:
            self._scheduler.on_chunk_received(probe, chunk, provider, self._queue.now)

    def _on_remote_pull(
        self, remote, probe, delay, ready, times, wants, i
    ) -> None:
        """Object ``_on_remote_pull`` with the membership scan on the row.

        The newest-serveable scan probes up to seven chunk ids against the
        puller's held set; through the compatibility view each probe is a
        method call plus scalar bitmap index.  Inlining the base/row reads
        keeps this path at object-engine speed.  Everything else — the
        record layout, the oracle arithmetic, the uplink admit, the chain
        scheduling — is byte-for-byte the parent's.
        """
        t = times[i]
        pg = probe.gidx
        if (remote, pg) in self._attached and t < self._leave_list[remote]:
            ul = self._up_list
            dl = self._down_list
            ipl = self._ip_list
            up = ul[remote]
            dn = dl[pg]
            self._rec_append(
                (t, ipl[remote], ipl[pg], REQUEST_BYTES, _KIND_CONTROL, up if up < dn else dn)
            )
            want = wants[i]
            if want >= 0:
                soa = self._soa
                pi = probe.pi
                # Bytes snapshot of the row: ≤ 7 membership reads follow
                # and plain-bytes indexing beats numpy scalar indexing.
                row = soa.have[pi].tobytes()
                b = soa.base[pi]
                cap = soa.capacity
                low = soa.low[pi]
                ci = self._av_chunk_interval
                ret = self._av_retention
                lo = want - 6
                if lo < 0:
                    lo = 0
                chunk = want
                while chunk >= lo:
                    s = chunk - b
                    if row[s] if 0 <= s < cap else chunk in low:
                        gen = chunk * ci
                        arrival = gen + delay
                        if ready > arrival:
                            arrival = ready
                        if t < arrival or t >= gen + ret:
                            # The remote lacks it → serve this chunk.
                            nbytes = self._chunk_bytes
                            lat = probe.lat_row[remote]
                            # Inlined UplinkScheduler.admit.
                            t_req = t + lat
                            free = self._ul_free
                            start = free[pg]
                            if start < t_req:
                                start = t_req
                            if start - t_req <= self._ul_max_backlog:
                                free[pg] = (
                                    start + nbytes * BITS_PER_BYTE / self._ul_bps[pg]
                                )
                                up = ul[pg]
                                dn = dl[remote]
                                self._rec_append(
                                    (
                                        start,
                                        ipl[pg],
                                        ipl[remote],
                                        nbytes,
                                        _KIND_VIDEO,
                                        up if up < dn else dn,
                                    )
                                )
                            break
                    chunk -= 1
        i += 1
        if i < len(times):
            self._queue.schedule(
                times[i], self._cb_pull, remote, probe, delay, ready, times, wants, i
            )

    # --------------------------------------------------------- array kernels
    def _soa_partner_ctx(self, pi: int, partners: np.ndarray) -> dict:
        """Array-view twin of ``_partner_context``, memoised per set.

        Holds the partner columns in plan order, the remote columns'
        diffusion scalars, and a lazily (re)built availability-threshold
        matrix covering the scanned chunk range plus slack.
        """
        if pi == self._ctx_hint_pi and partners is self._ctx_hint_partners:
            return self._ctx_hint
        key = partners.tobytes()
        store = self._soa_ctx[pi]
        ctx = store.get(key)
        if ctx is None:
            cols = partners.tolist()
            nr = self.n_remote
            is_remote = partners < nr
            delays, ready = self.availability.subset(partners[is_remote])
            n_rem = int(is_remote.sum())
            # A stores the remote columns as a leading block and the probe
            # columns as a trailing block (each in plan order), so the
            # kernel assembles it with one concatenate instead of fancy
            # column scatters.  ``scan`` maps back: the A column and the
            # partner id of every plan position, in plan order — the
            # decision loops walk it so holder order stays the object
            # scan's ascending-plan-column order.
            r = p = 0
            scan: list[tuple[int, int]] = []
            for g in cols:
                if g < nr:
                    scan.append((r, g))
                    r += 1
                else:
                    scan.append((n_rem + p, g))
                    p += 1
            # ``scan`` as aligned arrays: the A column and the partner id
            # of every plan position.  The scheduler kernels permute A's
            # columns with ``plan_cols`` so a flat ``nonzero`` walk visits
            # advertisers in plan order — the object scan's holder order —
            # and ``plan_g`` maps the walk straight back to partner ids.
            plan_cols = np.array([j for j, _g in scan], dtype=np.int64)
            plan_g = np.array([g for _j, g in scan], dtype=np.int64)
            # Provider scores over the plan columns.  Eager: a gather from
            # the precomputed swarm-wide row (plus the row itself for
            # holder-subset lookups).  Lazy: scored on demand over just
            # these columns — SelectionPolicy.scores is elementwise per
            # candidate, so the subset compute yields the identical IEEE
            # doubles the full-row gather would.
            if self._lazy:
                plan_scores = self._provider_policy.scores(
                    self._features(self.n_remote + pi, plan_g)
                )
                score_of: "dict | np.ndarray" = dict(
                    zip(plan_g.tolist(), plan_scores.tolist())
                )
            else:
                row = self._provider_scores[pi]
                plan_scores = row[plan_g]
                score_of = row
            ctx = {
                "scan": scan,
                "plan_cols": plan_cols,
                "plan_g": plan_g,
                "n_rem": n_rem,
                "delays": delays,
                "ready": ready,
                "plan_scores": plan_scores,
                "score_of": score_of,
                # Probe-partner bitmap rows, in plan order, for the gather.
                "probe_rows_arr": np.array(
                    [g - nr for g in cols if g >= nr], dtype=np.int64
                ),
                "thr_r0": 0,
                "thr": None,
                "fresh": None,
                # Cohort-tick block (see _cohort_build): valid only while
                # the serial matches the engine's current cohort build.
                "cohort_serial": 0,
                "cohort_A": None,
                "uid": self._ctx_uid,
            }
            self._ctx_uid += 1
            if len(store) >= _PARTNER_CTX_MAX:
                store.pop(next(iter(store)))
            store[key] = ctx
        return ctx

    def _soa_availability(
        self,
        ctx: dict,
        chunks_arr: np.ndarray,
        t: float,
        cmin: int | None = None,
        cmax: int | None = None,
    ) -> np.ndarray:
        """Availability matrix for ``chunks_arr`` against one partner ctx.

        ``cmin``/``cmax`` are optional chunk-range bounds (plain ints) the
        caller already knows; any superset of the scanned range is valid —
        they only steer threshold-matrix coverage.

        Columns are the ctx's block layout — remote partners first, probe
        partners after, each in plan order; ``ctx["scan"]`` maps columns
        back to partner ids (see ``_soa_partner_ctx``).  Remote columns
        answer through the diffusion-threshold matrix
        ``thr = max(gen + delay, ready)`` with the per-chunk freshness
        deadline ``gen + retention`` — elementwise the exact IEEE doubles
        of the object path's scalar per-chunk threshold lists.  Probe
        columns gather straight from the shared ``have`` bitmaps.

        Cohort fast path: when :meth:`_cohort_build` already covered this
        ctx for this very tick (serial + timestamp match), the block holds
        the full scanned range ``[floor, newest]`` and every caller's
        chunk set is a subset of it, so the matrix is one row gather.
        """
        if ctx["cohort_serial"] == self._cohort_serial and t == self._cohort_t:
            return ctx["cohort_A"][chunks_arr - self._cohort_floor]
        avail = pb = None
        if ctx["n_rem"]:
            if cmin is None:
                cmin = int(chunks_arr[-1])
                cmax = int(chunks_arr[0])
                if cmin > cmax:  # lookahead is usually descending; be exact
                    cmin, cmax = int(chunks_arr.min()), int(chunks_arr.max())
            thr = ctx["thr"]
            r0 = ctx["thr_r0"]
            if thr is None or cmin < r0 or cmax >= r0 + thr.shape[0]:
                r0 = cmin
                gens = (
                    np.arange(r0, cmax + 1 + _THR_SLACK, dtype=np.float64)
                    * self._av_chunk_interval
                )
                thr = np.maximum(
                    gens[:, None] + ctx["delays"][None, :], ctx["ready"][None, :]
                )
                ctx["thr_r0"] = r0
                ctx["thr"] = thr
                ctx["fresh"] = gens + self._av_retention
            rows = chunks_arr - r0
            avail = thr[rows] <= t
            # Freshness (gen + retention > t) is vacuously true for every
            # scanned chunk when the retention window covers the playout
            # window: chunks sit at/above floor ≥ live − W + 1, so
            # t − gen < W·ci ≤ retention.  Only compare when it can bite.
            if self._av_retention < self._soa.window_chunks * self._av_chunk_interval:
                avail &= (ctx["fresh"][rows] > t)[:, None]
        rows_arr = ctx["probe_rows_arr"]
        if rows_arr.size:
            soa = self._soa
            # One 2-D gather for every probe column.  Scanned chunks sit
            # at/above every probe's eviction frontier ≥ its base — any
            # partner's base ≤ its own floor at its last tick ≤ the
            # scanner's current floor — so S ≥ 0 always (ids a partner
            # parked in its low set are below the scanner's floor and
            # never scanned).  Slots past the row top clamp onto the
            # always-False guard column: "not held", no mask needed.
            S = chunks_arr[:, None] - soa.base_arr[rows_arr][None, :]
            pb = soa.have[rows_arr[None, :], np.minimum(S, soa.capacity)]
        if avail is None:
            return pb
        if pb is None:
            return avail
        return np.concatenate((avail, pb), axis=1)


#: Name → engine class for both cores.
ENGINES: dict[str, type[Engine]] = {Engine.mode: Engine, SoAEngine.mode: SoAEngine}

__all__ = [
    "ENGINES",
    "SoAEngine",
    "SoAProbe",
    "SoAState",
]
