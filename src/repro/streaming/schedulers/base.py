"""The chunk-scheduler strategy interface.

A :class:`ChunkScheduler` owns the per-tick request decision of one
engine run: given a probe's missing chunks (newest first) and its online
partners, it decides which chunks to request, in what order, from which
holders.  Everything else — buffer bookkeeping, uplink queuing, transfer
recording, the availability oracle — stays in the engine and is shared by
every policy.

Determinism contract
--------------------
Policies may draw randomness **only** from the engine's named RNG streams
(``engine._rng_engine`` for protocol jitter, ``engine._rng_sel`` through
the selection-policy CDFs for provider choice).  Candidate orderings must
be pure functions of visible protocol state with deterministic
tie-breaking, so a run is a pure function of ``(world seed, profile,
engine seed)`` under any policy.  The per-policy golden hashes enforce
this; see ``docs/schedulers.md`` for the rules a new policy must follow.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

#: Entry cap on the swarm-wide CDF memo.  Keys are holder score tuples;
#: at mega scale the distinct-sequence space is large enough to grow the
#: memo without bound, so past the cap it is dropped wholesale and warms
#: back up (entries are pure functions of their key — recomputed
#: bit-identically, memory-only effect).
_CDF_CACHE_MAX = 65_536


class ChunkScheduler:
    """Base strategy: subclasses implement :meth:`schedule_requests`."""

    #: Registry key (also the CLI / profile / campaign-config spelling).
    name = "abstract"

    #: True when the per-tick hole scan should stop after the engine's
    #: ``max_probe_attempts`` newest holes (the mesh-pull behaviour).
    #: Ordering policies that re-sort candidates (rarest, EDF) need the
    #: whole window and cap their *attempts* instead.
    truncate_scan = True

    #: True when the policy reacts to chunk arrivals (push diffusion);
    #: the engine only invokes :meth:`on_chunk_received` when set.
    pushes = False

    def bind(self, engine) -> None:
        """Attach to one engine run (called once, before any event)."""
        self._engine = engine
        # The provider draw's inputs, bound once (it runs per decision).
        self._random = engine._rng_engine.random
        self._integers = engine._rng_engine.integers
        self._sel_random = engine._rng_sel.random
        self._explore_prob = engine._explore_prob
        #: Memo of provider-selection CDFs (as sorted float lists), keyed
        #: by the holders' score bytes: the CDF is a pure function of the
        #: score sequence, so distinct holder sets with equal scores
        #: share one entry.  One cache for the whole swarm: equal score
        #: sequences yield the same CDF no matter which probe asks.
        self._cdf_cache: dict = {}
        self._cdf_from_scores = engine._provider_policy.cdf_from_scores

    # ------------------------------------------------------------- hooks
    def schedule_requests(self, probe, t: float, lookahead, partners, slots: int) -> None:
        """Issue up to ``slots`` chunk requests for one probe tick.

        ``lookahead`` is the probe's missing-chunk list, newest first;
        ``partners`` the online partner array.  Implementations ask
        ``engine._advertisers`` who holds which chunk and call
        ``engine._request_chunk`` per decision.
        """
        raise NotImplementedError

    def on_chunk_received(self, probe, chunk: int, provider: int, t: float) -> None:
        """Arrival hook (only called when :attr:`pushes` is True)."""

    # ----------------------------------------------------------- helpers
    def _choose_provider(self, probe, advertised: tuple, score_key: dict) -> int | None:
        """Awareness-weighted provider choice for one chunk, or None.

        ``advertised`` is one ``(holders, key)`` entry of
        ``engine._advertisers``.  Holders at the pipelining cap
        (``probe.busy_over``) are dropped first; with none left the chunk
        is skipped without an RNG draw.  Otherwise, with the profile's
        ``explore_prob`` pick uniformly (one engine-stream draw), else
        invert the softmax CDF of the holders' awareness scores with one
        selection-stream uniform — exactly ``sample_index``'s
        consumption.  The CDF is a pure function of the score sequence,
        memoised by the scores' float64 bytes: ``key`` when the advertiser
        lists came with it, else joined from ``score_key`` (a holder gidx
        → its provider score's bytes).
        """
        holders, key = advertised
        busy_over = probe.busy_over
        if busy_over and not busy_over.isdisjoint(holders):
            holders = [g for g in holders if g not in busy_over]
            key = None
        if not holders:
            return None
        if self._random() < self._explore_prob:
            return holders[int(self._integers(len(holders)))]
        if key is None:
            key = b"".join(map(score_key.__getitem__, holders))
        cache = self._cdf_cache
        cdf = cache.get(key)
        if cdf is None:
            cdf = self._cdf_from_scores(np.frombuffer(key, dtype=np.float64)).tolist()
            if len(cache) >= _CDF_CACHE_MAX:
                # Pure memo past its entry budget: drop it wholesale and
                # warm back up (bit-identical recomputes, memory-only).
                cache.clear()
            cache[key] = cdf
        return holders[bisect_right(cdf, self._sel_random())]
