"""Regenerate the golden engine trace hashes.

``engine_trace_hashes.json`` pins the byte-exact output of
:func:`repro.streaming.engine.simulate` (transfers, signaling intervals,
host table) per application at one fixed seed.  Any change to the engine,
topology, population or transport layers that shifts a single byte — an
extra RNG draw, a reordered set iteration, a float computed differently —
fails the determinism test, by design.

**Never regenerate these hashes in the same PR as an engine refactor**:
the whole point is that the fixture is produced by the code *before* the
refactor, so passing the test proves the refactor is byte-identical.  Only
regenerate when the behaviour change is intentional:

    PYTHONPATH=src python tests/golden/regen_engine.py

``object_core_hashes.json`` freezes the output of the deleted object
engine core for every case the differential suites compared the
struct-of-arrays core against: full digests (transfers, signaling, hosts,
events, per-kind dispatch and schedule counters, lazy residency counters)
keyed by case name.  The object core wrote it itself, on the last tree
that had one, so it stays the differential oracle after that core is
gone.  There is no regeneration command for it: the one core that exists
now would only be recording itself.  This module keeps the case
definitions and runners the suites replay it with.
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent
HASHES_PATH = GOLDEN_DIR / "engine_trace_hashes.json"
SCHEDULER_HASHES_PATH = GOLDEN_DIR / "scheduler_trace_hashes.json"

#: One run per application, full profile scale, fixed seed.  All three
#: paper applications are pinned so scheduler/engine refactors are
#: byte-checked against every protocol parameterisation.
ENGINE_GOLDEN_APPS = ("pplive", "sopcast", "tvants")
ENGINE_GOLDEN_KWARGS = dict(duration_s=30.0, seed=1234)

#: One run per chunk-scheduling policy (``--schedulers``): the smallest
#: paper app at a reduced scale keeps the fixture quick while still
#: exercising remotes, churn and every request path.  The ``mesh-pull``
#: entry is redundant with ``engine_trace_hashes.json`` by construction
#: (same engine, different run length) — it pins the *policy dispatch*
#: layer the same way the legacy fixture pins the engine underneath.
SCHEDULER_GOLDEN_APP = "tvants"
SCHEDULER_GOLDEN_SCALE = 0.4
SCHEDULER_GOLDEN_KWARGS = dict(duration_s=20.0, seed=1234)

OBJECT_CORE_HASHES_PATH = GOLDEN_DIR / "object_core_hashes.json"


def random_cases(n: int) -> list[tuple[str, str, int, float, float]]:
    """Seeded differential draws: ``(app, scheduler, seed, duration_s, scale)``.

    Stable across runs, diverse across cases.
    """
    from repro.streaming.schedulers import SCHEDULER_NAMES

    rng = random.Random(20260808)
    cases = []
    for _ in range(n):
        cases.append(
            (
                rng.choice(ENGINE_GOLDEN_APPS),
                rng.choice(sorted(SCHEDULER_NAMES)),
                rng.randrange(1, 10_000),
                round(rng.uniform(8.0, 14.0), 1),
                round(rng.uniform(0.35, 0.6), 2),
            )
        )
    return cases


#: Number of seeded draws the randomized differential runs.
RANDOM_CASE_COUNT = 6


def random_case_key(case: tuple) -> str:
    """Fixture key of one :func:`random_cases` draw."""
    return "random/" + "-".join(str(v) for v in case)


#: Paper-scale differential cases, by fixture key: the swarm profile, its
#: remote-peer count, the run, and what the run forces.  ``tick_cohort``
#: overrides the profile's tick driver; ``peer_state`` forces lazy or
#: eager peer state; ``representation`` feeds the engine the sparse
#: columns or their ``RemotePeer`` view (see
#: ``tests/streaming/test_scale_differential.py``).
SCALE_CASES: dict[str, dict] = {
    "napa-mid-swarm": dict(profile="napa-scale", size=2500, seed=7, duration_s=90.0),
    "napa-alias-seed3": dict(profile="napa-scale", size=1200, seed=3, duration_s=45.0),
    "napa-alias-seed19": dict(profile="napa-scale", size=1200, seed=19, duration_s=45.0),
    "napa-cohort-ticks": dict(
        profile="napa-scale", size=1200, seed=7, duration_s=45.0, tick_cohort=True
    ),
    "napa-staggered-ticks": dict(
        profile="napa-scale", size=1200, seed=7, duration_s=45.0, tick_cohort=False
    ),
    "napa-eager": dict(
        profile="napa-scale", size=1200, seed=7, duration_s=45.0, peer_state="eager"
    ),
    "napa-lazy": dict(
        profile="napa-scale", size=1200, seed=7, duration_s=45.0, peer_state="lazy"
    ),
    "mega-eager": dict(
        profile="mega-scale", size=2500, seed=7, duration_s=60.0, peer_state="eager"
    ),
    "mega-lazy": dict(
        profile="mega-scale", size=2500, seed=7, duration_s=60.0, peer_state="lazy"
    ),
    "napa-lazy-sparse": dict(
        profile="napa-scale", size=800, seed=7, duration_s=60.0,
        peer_state="lazy", representation="sparse",
    ),
    "napa-lazy-dense": dict(
        profile="napa-scale", size=800, seed=7, duration_s=60.0,
        peer_state="lazy", representation="dense",
    ),
}


def compute_hashes() -> dict:
    from repro.streaming.engine import EngineConfig, simulate
    from repro.streaming.profiles import get_profile
    from repro.trace.store import trace_digest

    hashes = {}
    for app in ENGINE_GOLDEN_APPS:
        result = simulate(
            get_profile(app), engine_config=EngineConfig(**ENGINE_GOLDEN_KWARGS)
        )
        hashes[app] = {
            "transfers": trace_digest(result.transfers),
            "signaling": trace_digest(result.signaling),
            "hosts": trace_digest(result.hosts.rows),
            "events": result.events_processed,
        }
    return {"config": dict(ENGINE_GOLDEN_KWARGS), "hashes": hashes}


def compute_scheduler_hashes() -> dict:
    from dataclasses import replace

    from repro.streaming.engine import EngineConfig, simulate
    from repro.streaming.profiles import get_profile
    from repro.streaming.schedulers import SCHEDULER_NAMES
    from repro.trace.store import trace_digest

    base = get_profile(SCHEDULER_GOLDEN_APP).scaled(SCHEDULER_GOLDEN_SCALE)
    hashes = {}
    for name in SCHEDULER_NAMES:
        result = simulate(
            replace(base, scheduler=name),
            engine_config=EngineConfig(**SCHEDULER_GOLDEN_KWARGS),
        )
        hashes[name] = {
            "transfers": trace_digest(result.transfers),
            "signaling": trace_digest(result.signaling),
            "hosts": trace_digest(result.hosts.rows),
            "events": result.events_processed,
        }
    return {
        "app": SCHEDULER_GOLDEN_APP,
        "scale": SCHEDULER_GOLDEN_SCALE,
        "config": dict(SCHEDULER_GOLDEN_KWARGS),
        "hashes": hashes,
    }


def full_digest(result) -> dict:
    """Every byte-identity field of one run, as a JSON-ready dict."""
    from repro.trace.store import trace_digest

    stats = result.extras["engine_stats"]
    out = {
        "transfers": trace_digest(result.transfers),
        "signaling": trace_digest(result.signaling),
        "hosts": trace_digest(result.hosts.rows),
        "events": result.events_processed,
        "dispatch_by_kind": stats["dispatch_by_kind"],
        "schedule_by_kind": stats["schedule_by_kind"],
    }
    if "lazy" in stats:
        out["lazy"] = stats["lazy"]
    return out


def random_case_result(case: tuple):
    """Run one :func:`random_cases` draw."""
    from dataclasses import replace

    from repro.streaming.engine import EngineConfig, simulate
    from repro.streaming.profiles import get_profile

    app, scheduler, seed, duration_s, scale = case
    profile = replace(get_profile(app).scaled(scale), scheduler=scheduler)
    return simulate(profile, engine_config=EngineConfig(duration_s=duration_s, seed=seed))


def scale_case_result(case: dict):
    """Run one :data:`SCALE_CASES`-shaped case under the forcing it names."""
    from dataclasses import replace

    from repro.config import RngBundle
    from repro.population.demographics import crossswarm_audience
    from repro.population.sparse import SparseSwarmConfig, generate_sparse_swarm
    from repro.streaming.engine import Engine, EngineConfig, simulate
    from repro.streaming.profiles import get_profile
    from repro.topology.testbed import build_napa_wine_testbed
    from repro.topology.world import World

    from tests.seams import forced

    profile = get_profile(case["profile"]).scaled_swarm(case["size"])
    if "tick_cohort" in case:
        profile = replace(profile, tick_cohort=case["tick_cohort"])
    seed, duration_s = case["seed"], case["duration_s"]
    with forced(peer_state=case.get("peer_state")):
        if "representation" not in case:
            return simulate(profile, seed=seed, duration_s=duration_s)
        # simulate()'s plumbing with the population step made explicit, so
        # one drawn swarm can be fed as columns or as RemotePeer objects.
        world = World()
        testbed = build_napa_wine_testbed(world)
        demo = crossswarm_audience(probe_as_fraction=profile.probe_as_fraction)
        swarm = generate_sparse_swarm(
            world,
            SparseSwarmConfig(size=profile.swarm_size, demographics=demo),
            RngBundle(seed)["population"],
        )
        population = swarm if case["representation"] == "sparse" else swarm.peers()
        config = EngineConfig(duration_s=duration_s, seed=seed)
        return Engine(world, testbed, profile, population, config).run()


def regenerate() -> pathlib.Path:
    HASHES_PATH.write_text(json.dumps(compute_hashes(), indent=2, sort_keys=True) + "\n")
    return HASHES_PATH


def regenerate_schedulers() -> pathlib.Path:
    SCHEDULER_HASHES_PATH.write_text(
        json.dumps(compute_scheduler_hashes(), indent=2, sort_keys=True) + "\n"
    )
    return SCHEDULER_HASHES_PATH


if __name__ == "__main__":
    if "--schedulers" in sys.argv[1:]:
        print(f"wrote {regenerate_schedulers()}")
    else:
        print(f"wrote {regenerate()}")
