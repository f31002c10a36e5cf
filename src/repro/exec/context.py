"""Per-process cache of the shared experiment substrate.

Building the synthetic Internet, deploying the Table I testbed on it and
deriving the address registry is pure in the :class:`WorldConfig` — every
process that replays the construction gets the identical object graph.
This module builds that *pristine* triple once per process and serves:

* :func:`shard_context` — a **fresh copy** of the world/testbed per shard
  (simulation mutates the world's subnet allocator while placing the
  remote swarm, so shards must not share one mutable world — that would
  make results depend on execution order, the one thing a parallel
  executor cannot promise), plus the shared read-only registry;
* :func:`campaign_context` — a fresh copy for the returned
  :class:`~repro.experiments.campaign.Campaign` itself.

The copy is ~15× cheaper than construction (measured: ≈5 ms vs ≈75 ms),
so a worker that executes many shards pays the build cost once.
"""

from __future__ import annotations

import copy

from repro.heuristics.registry import IpRegistry
from repro.topology.testbed import Testbed, build_napa_wine_testbed
from repro.topology.world import World, WorldConfig

#: Pristine (never simulated-on) substrate per world configuration,
#: filled lazily per process.  Worker processes inherit an empty cache on
#: spawn and a warm one on fork; either way entries are deterministic, so
#: sharing is safe.
_PRISTINE: dict[WorldConfig, tuple[World, Testbed, IpRegistry]] = {}


def _pristine(config: WorldConfig | None) -> tuple[World, Testbed, IpRegistry]:
    cfg = config or WorldConfig()
    cached = _PRISTINE.get(cfg)
    if cached is None:
        world = World(cfg)
        testbed = build_napa_wine_testbed(world)
        cached = (world, testbed, IpRegistry.from_world(world))
        _PRISTINE[cfg] = cached
    return cached


def shard_context(
    config: WorldConfig | None = None,
) -> tuple[World, Testbed, IpRegistry]:
    """A private world/testbed copy for one shard, plus the shared registry.

    The registry (IP prefix → AS/country) is derived from the address
    blocks allocated at world build time, which simulation never touches,
    so one instance serves every shard read-only.
    """
    world, testbed, registry = _pristine(config)
    world_copy, testbed_copy = copy.deepcopy((world, testbed))
    return world_copy, testbed_copy, registry


def campaign_context(
    config: WorldConfig | None = None,
) -> tuple[World, Testbed, IpRegistry]:
    """A private world/testbed copy for a :class:`Campaign` object.

    Kept separate from the pristine cache entry so downstream consumers
    (e.g. what-if simulations on ``campaign.world``) cannot contaminate
    later campaigns.
    """
    return shard_context(config)
