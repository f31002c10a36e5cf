"""The single engine core against the frozen object core.

The simulator used to ship two engine cores: an object core (a
per-probe buffer set and in-flight set) and the struct-of-arrays core
that is now the only one.  Their contract was *byte identity* — for any
fixed seed both emitted the same transfer and signaling bytes, processed
the same number of events and dispatched the same per-kind event counts.
The object core's output for every case this suite compared is frozen in
``tests/golden/object_core_hashes.json`` (written by the object core
itself before it was deleted), so the contract still holds here:

* the golden fixtures (produced by the pre-SoA object engine) are
  replayed — all three app profiles and all four chunk schedulers;
* a randomized sweep (seeded parameter draws: app × scheduler × engine
  seed × duration × scale) compares full digests plus the dispatch
  counters against the frozen object-core output;
* the engine registry names the one core.

See ``docs/engine-internals.md`` for the determinism rules that make
byte identity possible.
"""

import json
from dataclasses import replace

import pytest

from repro.streaming.engine import Engine, EngineConfig, simulate
from repro.streaming.profiles import get_profile
from repro.streaming.schedulers import SCHEDULER_NAMES
from repro.streaming.soa import ENGINES
from repro.trace.store import trace_digest

from tests.golden.regen_engine import (
    ENGINE_GOLDEN_APPS,
    ENGINE_GOLDEN_KWARGS,
    HASHES_PATH,
    OBJECT_CORE_HASHES_PATH,
    RANDOM_CASE_COUNT,
    SCHEDULER_GOLDEN_APP,
    SCHEDULER_GOLDEN_KWARGS,
    SCHEDULER_GOLDEN_SCALE,
    SCHEDULER_HASHES_PATH,
    full_digest,
    random_case_key,
    random_case_result,
    random_cases,
)


# ----------------------------------------------------------- golden fixtures
@pytest.fixture(scope="module")
def golden():
    return json.loads(HASHES_PATH.read_text())


@pytest.fixture(scope="module")
def scheduler_golden():
    return json.loads(SCHEDULER_HASHES_PATH.read_text())


@pytest.fixture(scope="module")
def object_core():
    return json.loads(OBJECT_CORE_HASHES_PATH.read_text())["hashes"]


@pytest.mark.parametrize("app", ENGINE_GOLDEN_APPS)
def test_soa_matches_engine_golden_hashes(app, golden):
    """The engine reproduces the pre-SoA object engine's bytes per app."""
    result = simulate(
        get_profile(app), engine_config=EngineConfig(**ENGINE_GOLDEN_KWARGS)
    )
    expected = golden["hashes"][app]
    actual = {
        "transfers": trace_digest(result.transfers),
        "signaling": trace_digest(result.signaling),
        "hosts": trace_digest(result.hosts.rows),
        "events": result.events_processed,
    }
    assert actual == expected, (
        f"{app}: the engine drifted from the object engine's golden "
        "hashes — a kernel perturbed an RNG draw or record order"
    )


@pytest.mark.parametrize("scheduler", sorted(SCHEDULER_NAMES))
def test_soa_matches_scheduler_golden_hashes(scheduler, scheduler_golden):
    """Every chunk-scheduling policy reproduces its golden bytes."""
    profile = replace(
        get_profile(SCHEDULER_GOLDEN_APP).scaled(SCHEDULER_GOLDEN_SCALE),
        scheduler=scheduler,
    )
    result = simulate(profile, engine_config=EngineConfig(**SCHEDULER_GOLDEN_KWARGS))
    expected = scheduler_golden["hashes"][scheduler]
    actual = {
        "transfers": trace_digest(result.transfers),
        "signaling": trace_digest(result.signaling),
        "hosts": trace_digest(result.hosts.rows),
        "events": result.events_processed,
    }
    assert actual == expected, (
        f"{scheduler}: the scheduler drifted from the object policy's "
        "golden hashes"
    )


# ------------------------------------------------------- randomized sweep
def test_object_core_fixture_covers_every_random_case(object_core):
    keys = {random_case_key(case) for case in random_cases(RANDOM_CASE_COUNT)}
    assert keys <= set(object_core)


@pytest.mark.parametrize(
    "app,scheduler,seed,duration_s,scale",
    random_cases(RANDOM_CASE_COUNT),
    ids=lambda v: str(v),
)
def test_randomized_soa_object_differential(
    app, scheduler, seed, duration_s, scale, object_core
):
    """Same seed → the object core's bytes, events and dispatches."""
    case = (app, scheduler, seed, duration_s, scale)
    assert full_digest(random_case_result(case)) == object_core[random_case_key(case)], (
        f"{app}/{scheduler} seed={seed}: the engine diverged from the "
        "frozen object core"
    )


# -------------------------------------------------------- engine registry
class TestEngineRegistry:
    def test_registry_names(self):
        assert ENGINES == {"soa": Engine}
