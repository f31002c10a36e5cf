"""Each run picks its own peer-state mode.

The peer state follows the directory size (lazy iff remotes + probes
reach ``LAZY_AUTO_MIN``).  Nothing overrides the choice: no keyword, no
CLI flag, no environment variable.  The table below is the contract for
every registered profile at its registered size; a new profile must be
added to it.
"""

import pytest

from repro.streaming.engine import LAZY_AUTO_MIN, select_peer_state, simulate
from repro.streaming.profiles import PROFILES, get_profile
from repro.trace.store import trace_digest

#: Peer state each registered profile runs with at its own size.
EXPECTED = {
    "pplive": "eager",
    "sopcast": "eager",
    "tvants": "eager",
    "pplive-popular": "eager",
    "napa-wine": "eager",
    "random": "eager",
    "napa-scale": "eager",
    "mega-scale": "lazy",
}


def test_table_covers_every_registered_profile():
    assert set(EXPECTED) == set(PROFILES)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_registered_profile_selection(name, testbed):
    n_peers = get_profile(name).swarm_size + len(testbed.hosts)
    assert select_peer_state(n_peers) == ("lazy" if n_peers >= LAZY_AUTO_MIN else "eager")
    assert select_peer_state(n_peers) == EXPECTED[name]


def test_peer_state_threshold_is_inclusive():
    assert select_peer_state(LAZY_AUTO_MIN - 1) == "eager"
    assert select_peer_state(LAZY_AUTO_MIN) == "lazy"


def test_environment_does_not_pick_the_core(monkeypatch):
    """``REPRO_ENGINE`` (removed with the object core) changes nothing."""
    profile = get_profile("tvants").scaled(0.35)

    def digest():
        result = simulate(profile, duration_s=5.0, seed=7)
        return trace_digest(result.transfers, result.signaling)

    plain = digest()
    monkeypatch.setenv("REPRO_ENGINE", "object")
    assert digest() == plain


@pytest.mark.parametrize(
    "profile",
    [get_profile("napa-scale").scaled_swarm(1200), get_profile("tvants").scaled(0.5)],
    ids=["napa-scale", "tvants"],
)
def test_run_records_the_core_it_used(profile):
    """A run records the peer state it used; there is no core to record."""
    result = simulate(profile, duration_s=15.0, seed=7)
    assert "engine_mode" not in result.extras
    assert result.extras["engine_stats"]["peer_state"] == "eager"
