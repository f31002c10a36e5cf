"""Rarest-first pull with buffer-map exchange.

After the p2pstream ``peer_dbs_rarest`` design: each peer tracks which
chunks its neighbours advertise (here: the engine's ground-truth
advertiser lists, which *are* the periodically-exchanged buffer maps)
and requests the missing chunk with the **lowest advertised
availability** first —
spreading rare chunks before they age out instead of chasing the live
edge.  Ties break deterministically by ascending chunk id.

A chunk nobody advertises is never requested (there is no one to serve
it), which is the invariant the differential suite checks: every
delivered chunk was advertised by its provider's buffer map at request
time.
"""

from __future__ import annotations

from repro.streaming.schedulers.base import ChunkScheduler


class RarestFirstScheduler(ChunkScheduler):
    """Ascending advertised-availability request order."""

    name = "rarest"
    #: Rarity ordering needs the whole window, not just the newest holes.
    truncate_scan = False

    @staticmethod
    def order_candidates(holes: list[int], counts: dict[int, int]) -> list[int]:
        """Request order: rarest first, ties broken by ascending chunk id.

        ``counts`` maps chunk id → number of advertising partners.
        Chunks with no advertiser are dropped (nobody can serve them);
        the sort key ``(count, chunk)`` makes the order a pure function
        of its inputs — the property suite pins both laws.
        """
        return sorted(
            (c for c in holes if counts.get(c, 0) > 0),
            key=lambda c: (counts[c], c),
        )

    def schedule_requests(self, probe, t, lookahead, partners, slots) -> None:
        eng = self._engine
        ctx = eng._context(probe.pi, partners)
        # Buffer-map pass: advertised availability of every missing chunk.
        # Counts ignore pipelining caps; the caps apply when a chunk's
        # turn comes, against the busy state at that moment.
        advertisers = dict(zip(lookahead, eng._advertisers(ctx, lookahead, t)))
        counts = {c: len(a[0]) for c, a in advertisers.items()}
        attempts = 0
        max_attempts = eng._max_attempts
        for chunk in self.order_candidates(lookahead, counts):
            if slots <= 0 or attempts >= max_attempts:
                break
            attempts += 1
            provider = self._choose_provider(probe, advertisers[chunk], ctx["score_key"])
            if provider is not None and eng._request_chunk(probe, provider, chunk, t):
                slots -= 1
