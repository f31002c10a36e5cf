"""The original mesh-pull chunk-selection core, as a strategy object.

The RNG draw sequence — and therefore every byte of the trace — is the
pre-refactor engine's; ``tests/golden/engine_trace_hashes.json``
(generated before the strategy extraction) pins that equivalence.

Policy: walk the missing chunks newest-first, find the partners that can
serve each (remotes through the per-chunk diffusion thresholds, probe
partners through their buffers), and pick one provider per chunk with the
awareness-weighted softmax (or a uniform exploration draw).
"""

from __future__ import annotations

from repro.streaming.schedulers.base import ChunkScheduler


class MeshPullScheduler(ChunkScheduler):
    """Newest-first mesh-pull selection (the paper's baseline core)."""

    name = "mesh-pull"
    truncate_scan = True

    @staticmethod
    def order_candidates(holes: list[int]) -> list[int]:
        """Request order over a newest-first hole list: unchanged."""
        return list(holes)

    def schedule_requests(self, probe, t, lookahead, partners, slots) -> None:
        eng = self._engine
        ctx = eng._context(probe.pi, partners)
        score_key = ctx["score_key"]
        for chunk, advertised in zip(lookahead, eng._advertisers(ctx, lookahead, t)):
            if slots <= 0:
                break
            # Pipelining caps apply at each chunk's turn, against the busy
            # state the earlier requests of this tick left behind.
            provider = self._choose_provider(probe, advertised, score_key)
            if provider is not None and eng._request_chunk(probe, provider, chunk, t):
                slots -= 1
