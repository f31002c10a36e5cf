"""SoA-vs-object differential suite: the two engine cores are one engine.

The struct-of-arrays core (:mod:`repro.streaming.soa`) re-implements the
per-probe hot paths against shared numpy arrays; its contract is *byte
identity* — for any fixed seed both cores must emit the same transfer
and signaling bytes, process the same number of events, and dispatch the
same per-kind event counts.  Three layers pin that here:

* the golden fixtures (produced by the pre-SoA object engine) are
  replayed under the SoA core — all three app profiles and all four
  chunk schedulers;
* a randomized sweep (seeded parameter draws: app × scheduler × engine
  seed × duration × scale) runs both cores and compares full digests
  plus the dispatch counters;
* the engine registry itself (both cores registered, result extras
  tagged with the mode that actually ran).

The paper profiles run on the object core by themselves; the SoA side
is forced through the test seam (:mod:`tests.seams`).

See ``docs/engine-internals.md`` for the determinism rules that make
byte identity possible, and for how to extend this suite.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.streaming.engine import EngineConfig
from repro.streaming.profiles import get_profile
from repro.streaming.schedulers import SCHEDULER_NAMES
from repro.streaming.soa import ENGINES
from repro.trace.store import trace_digest

from tests.golden.regen_engine import (
    ENGINE_GOLDEN_APPS,
    ENGINE_GOLDEN_KWARGS,
    HASHES_PATH,
    SCHEDULER_GOLDEN_APP,
    SCHEDULER_GOLDEN_KWARGS,
    SCHEDULER_GOLDEN_SCALE,
    SCHEDULER_HASHES_PATH,
)
from tests.seams import simulate_forced


def _digests(result) -> dict:
    """Everything the byte-identity contract covers, as one dict."""
    stats = result.extras["engine_stats"]
    return {
        "transfers": trace_digest(result.transfers),
        "signaling": trace_digest(result.signaling),
        "hosts": trace_digest(result.hosts.rows),
        "events": result.events_processed,
        "dispatch_by_kind": stats["dispatch_by_kind"],
        "schedule_by_kind": stats["schedule_by_kind"],
    }


# ----------------------------------------------------- golden fixtures, SoA
@pytest.fixture(scope="module")
def golden():
    return json.loads(HASHES_PATH.read_text())


@pytest.fixture(scope="module")
def scheduler_golden():
    return json.loads(SCHEDULER_HASHES_PATH.read_text())


@pytest.mark.parametrize("app", ENGINE_GOLDEN_APPS)
def test_soa_matches_engine_golden_hashes(app, golden):
    """The SoA core reproduces the pre-SoA object engine's bytes per app."""
    result = simulate_forced(
        get_profile(app),
        engine="soa",
        engine_config=EngineConfig(**ENGINE_GOLDEN_KWARGS),
    )
    expected = golden["hashes"][app]
    actual = {
        "transfers": trace_digest(result.transfers),
        "signaling": trace_digest(result.signaling),
        "hosts": trace_digest(result.hosts.rows),
        "events": result.events_processed,
    }
    assert actual == expected, (
        f"{app}: the SoA core drifted from the object engine's golden "
        "hashes — an array kernel perturbed an RNG draw or record order"
    )
    assert result.extras["engine_mode"] == "soa"


@pytest.mark.parametrize("scheduler", sorted(SCHEDULER_NAMES))
def test_soa_matches_scheduler_golden_hashes(scheduler, scheduler_golden):
    """Every chunk-scheduling policy is byte-identical under the SoA core."""
    profile = replace(
        get_profile(SCHEDULER_GOLDEN_APP).scaled(SCHEDULER_GOLDEN_SCALE),
        scheduler=scheduler,
    )
    result = simulate_forced(
        profile,
        engine="soa",
        engine_config=EngineConfig(**SCHEDULER_GOLDEN_KWARGS),
    )
    expected = scheduler_golden["hashes"][scheduler]
    actual = {
        "transfers": trace_digest(result.transfers),
        "signaling": trace_digest(result.signaling),
        "hosts": trace_digest(result.hosts.rows),
        "events": result.events_processed,
    }
    assert actual == expected, (
        f"{scheduler}: the SoA scheduler kernel drifted from the object "
        "policy's golden hashes"
    )


# ------------------------------------------------------- randomized sweep
def _random_cases(n: int) -> list[tuple[str, str, int, float, float]]:
    """Seeded parameter draws — stable across runs, diverse across cases."""
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


@pytest.mark.parametrize(
    "app,scheduler,seed,duration_s,scale",
    _random_cases(6),
    ids=lambda v: str(v),
)
def test_randomized_soa_object_differential(app, scheduler, seed, duration_s, scale):
    """Both cores, same seed → same bytes, same events, same dispatches."""
    profile = replace(get_profile(app).scaled(scale), scheduler=scheduler)
    config = EngineConfig(duration_s=duration_s, seed=seed)
    obj = simulate_forced(profile, engine="object", engine_config=config)
    soa = simulate_forced(profile, engine="soa", engine_config=config)
    assert _digests(soa) == _digests(obj), (
        f"{app}/{scheduler} seed={seed}: the SoA core diverged from the "
        "object engine"
    )
    assert obj.extras["engine_mode"] == "object"
    assert soa.extras["engine_mode"] == "soa"


# -------------------------------------------------------- engine registry
class TestEngineRegistry:
    def test_registry_names(self):
        assert sorted(ENGINES) == ["object", "soa"]
        assert all(ENGINES[name].mode == name for name in ENGINES)
