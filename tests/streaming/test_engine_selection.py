"""Every run has one engine core and one peer-state mode.

Nothing selects either: no keyword, no CLI flag, no environment
variable, no size threshold.  What a profile's selection policies still
decide is whether the probes' awareness-code rows carry the near bit —
the one bit that costs a hop computation.  The table below is that
contract for every registered profile; a new profile must be added to it.
"""

import pytest

from repro.streaming.engine import simulate
from repro.streaming.profiles import PROFILES, get_profile
from repro.streaming.selection import CODE_NEAR
from repro.trace.store import trace_digest

#: Whether each registered profile's code rows carry the near bit (some
#: selection policy gives hops a weight).
EXPECTED_NEAR = {
    "pplive": False,
    "sopcast": False,
    "tvants": False,
    "pplive-popular": False,
    "napa-wine": True,
    "random": False,
    "napa-scale": True,
    "mega-scale": True,
}


def test_table_covers_every_registered_profile():
    assert set(EXPECTED_NEAR) == set(PROFILES)


def _small(name):
    profile = get_profile(name)
    if profile.swarm == "sparse":
        return profile.scaled_swarm(1200)
    return profile.scaled(0.35)


@pytest.mark.parametrize("name", sorted(EXPECTED_NEAR))
def test_registered_profile_selection(name, monkeypatch):
    """Each probe gets one code row over the directory when the run
    starts it; the near bit appears exactly where a policy weighs hops."""
    from repro.streaming import engine as engine_mod

    engines = []
    init = engine_mod.Engine.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(engine_mod.Engine, "__init__", spy)
    profile = _small(name)
    weights = (profile.partner_weights, profile.provider_weights, profile.remote_weights)
    assert any(w.hop for w in weights) == EXPECTED_NEAR[name]
    simulate(profile, duration_s=2.0, seed=7)
    (eng,) = engines
    n = eng.n_remote + eng.n_probe
    near = False
    for probe in eng._probes:
        assert isinstance(probe.code, bytes) and len(probe.code) == n
        near |= bool((probe.codes & CODE_NEAR).any())
    assert near == EXPECTED_NEAR[name]


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
    """There is one core and one peer-state mode, so a run records
    neither: no engine mode, no peer state, no lazy residency block."""
    result = simulate(profile, duration_s=15.0, seed=7)
    stats = result.extras["engine_stats"]
    assert "engine_mode" not in result.extras
    assert "peer_state" not in stats and "lazy" not in stats
