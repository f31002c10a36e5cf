"""Each run picks its own engine core and peer-state mode.

The core follows the profile (SoA iff ``tick_cohort``) and the peer state
follows the directory size (lazy iff remotes + probes reach
``LAZY_AUTO_MIN``).  Nothing overrides either choice: no keyword, no CLI
flag, no environment variable.  The table below is the contract for
every registered profile at its registered size; a new profile must be
added to it.
"""

import pytest

from repro.streaming.engine import (
    LAZY_AUTO_MIN,
    Engine,
    select_engine,
    select_peer_state,
    simulate,
)
from repro.streaming.profiles import PROFILES, get_profile
from repro.streaming.soa import SoAEngine

#: (core, peer state) each registered profile runs with at its own size.
EXPECTED = {
    "pplive": ("object", "eager"),
    "sopcast": ("object", "eager"),
    "tvants": ("object", "eager"),
    "pplive-popular": ("object", "eager"),
    "napa-wine": ("object", "eager"),
    "random": ("object", "eager"),
    "napa-scale": ("soa", "eager"),
    "mega-scale": ("soa", "lazy"),
}


def test_table_covers_every_registered_profile():
    assert set(EXPECTED) == set(PROFILES)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_registered_profile_selection(name, testbed):
    profile = get_profile(name)
    core = select_engine(profile)
    n_peers = profile.swarm_size + len(testbed.hosts)
    assert (core is SoAEngine) == profile.tick_cohort
    assert select_peer_state(n_peers) == ("lazy" if n_peers >= LAZY_AUTO_MIN else "eager")
    assert (core.mode, select_peer_state(n_peers)) == EXPECTED[name]


def test_peer_state_threshold_is_inclusive():
    assert select_peer_state(LAZY_AUTO_MIN - 1) == "eager"
    assert select_peer_state(LAZY_AUTO_MIN) == "lazy"


def test_environment_does_not_pick_the_core(monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "object")
    assert select_engine(get_profile("napa-scale")) is SoAEngine
    monkeypatch.setenv("REPRO_ENGINE", "soa")
    assert select_engine(get_profile("tvants")) is Engine


@pytest.mark.parametrize(
    "profile,mode",
    [
        (get_profile("napa-scale").scaled_swarm(1200), "soa"),
        (get_profile("tvants").scaled(0.5), "object"),
    ],
    ids=["napa-scale", "tvants"],
)
def test_run_records_the_core_it_used(profile, mode):
    result = simulate(profile, duration_s=15.0, seed=7)
    assert result.extras["engine_mode"] == mode
    assert result.extras["engine_stats"]["peer_state"] == "eager"
