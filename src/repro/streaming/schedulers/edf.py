"""Deadline-driven (earliest-deadline-first) chunk scheduling.

After the p2pstream ``peer_dbs_edf`` design: every missing chunk has a
playout deadline — the moment it slides out of the playout buffer and is
lost to the viewer — and the scheduler requests the chunk whose deadline
expires soonest, instead of the newest one.  A chunk whose deadline has
already passed is *never* requested: the bytes could not arrive in time
to be played, so spending a request slot on it only steals uplink from
chunks that can still make it.

Deadline model: chunk ``c`` is generated at ``c · Δ`` (the chunk-clock
interval) and leaves a ``W``-chunk playout window when the live edge
reaches ``c + W``, i.e. ``deadline(c) = (c + W) · Δ``.  Deadlines are
strictly increasing in the chunk id, so EDF order over a hole set is
simply ascending chunk id — which also makes the within-tick request
sequence monotone in deadline, the invariant the differential suite
checks.
"""

from __future__ import annotations

from repro.streaming.schedulers.base import ChunkScheduler


def playout_deadline(chunk: int, interval: float, window_chunks: int) -> float:
    """When ``chunk`` slides out of a ``window_chunks``-wide buffer."""
    return (chunk + window_chunks) * interval


class EdfScheduler(ChunkScheduler):
    """Earliest-playout-deadline-first request order."""

    name = "edf"
    #: EDF wants the oldest (most urgent) holes, which a newest-first
    #: truncated scan would drop — take the whole window.
    truncate_scan = False

    @staticmethod
    def order_candidates(
        holes: list[int], now: float, interval: float, window_chunks: int
    ) -> list[int]:
        """Request order: ascending deadline, expired chunks excluded.

        Pure function of its inputs (no RNG, no engine state); the
        property suite pins the subset, ordering and never-past-deadline
        laws directly against this.
        """
        live = sorted(
            c for c in holes if playout_deadline(c, interval, window_chunks) > now
        )
        return live

    def schedule_requests(self, probe, t, lookahead, partners, slots) -> None:
        eng = self._engine
        order = self.order_candidates(
            lookahead, t, eng._av_chunk_interval, eng._soa.window_chunks
        )
        if not order:
            return
        ctx = eng._context(probe.pi, partners)
        attempts = 0
        max_attempts = eng._max_attempts
        # Holder-less chunks still consume an attempt.
        for chunk, advertised in zip(order, eng._advertisers(ctx, order, t)):
            if slots <= 0 or attempts >= max_attempts:
                break
            attempts += 1
            provider = self._choose_provider(probe, advertised, ctx["score_key"])
            if provider is not None and eng._request_chunk(probe, provider, chunk, t):
                slots -= 1
