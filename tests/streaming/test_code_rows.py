"""Awareness-code rows: the engine's one form of per-probe peer state.

Each probe holds one byte per directory peer packing the five binary
properties the selection policies weigh (BW, same AS, same CC, same
subnet, near).  Every score is then ``table[code]`` and every protocol
latency ``LATENCY_BY_CODE[code]``; the tests here pin both lookups to
the functions they replace, bit for bit, and pin each row to the plain
per-peer compares and the path model's hop counts — including the
jitter-band shortcut the near bit takes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._hashing import pair_randint
from repro.config import RngBundle
from repro.population.demographics import crossswarm_audience
from repro.population.generator import PopulationConfig, generate_population
from repro.population.sparse import generate_sparse_swarm
from repro.streaming.engine import LATENCY_BY_CODE, Engine, EngineConfig, _approx_latency
from repro.streaming.profiles import PROFILES, get_profile
from repro.streaming.selection import (
    CODE_AS,
    CODE_BW,
    CODE_CC,
    CODE_NEAR,
    CODE_NET,
    N_CODES,
    CandidateFeatures,
    SelectionPolicy,
)
from repro.topology.testbed import build_napa_wine_testbed
from repro.topology.world import World

WEIGHT_SETS = ("partner_weights", "provider_weights", "remote_weights")


def _bits(values):
    return values.view(np.uint64)


@pytest.mark.parametrize("which", WEIGHT_SETS)
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_score_table_matches_scores(name, which):
    """``table[code]`` is ``scores(features)`` bit for bit, for random
    feature arrays under every registered profile's three weight sets."""
    profile = get_profile(name)
    policy = SelectionPolicy(
        getattr(profile, which), np.random.default_rng(0), profile.selection_temperature
    )
    table = policy.score_table()
    assert table.shape == (N_CODES,)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(*[st.booleans()] * 5), max_size=64))
    def check(rows):
        cols = np.array(rows, dtype=bool).reshape(-1, 5).T
        feats = CandidateFeatures(*cols)
        codes = (
            cols[0] * CODE_BW
            + cols[1] * CODE_AS
            + cols[2] * CODE_CC
            + cols[3] * CODE_NET
            + cols[4] * CODE_NEAR
        )
        assert np.array_equal(_bits(table[codes]), _bits(policy.scores(feats)))

    check()


def test_latency_table_matches_approx_latency():
    for code in range(N_CODES):
        assert LATENCY_BY_CODE[code] == _approx_latency(
            bool(code & CODE_NET), bool(code & CODE_AS), bool(code & CODE_CC)
        )


def _engine(name, seed=7):
    """A test-scale engine for registered profile ``name``, not yet run."""
    world = World()
    testbed = build_napa_wine_testbed(world)
    profile = get_profile(name)
    rng = RngBundle(seed)["population"]
    if profile.swarm == "sparse":
        profile = profile.scaled_swarm(1200)
        demo = crossswarm_audience(probe_as_fraction=profile.probe_as_fraction)
        population = generate_sparse_swarm(
            world, PopulationConfig(size=profile.swarm_size, demographics=demo), rng
        )
    else:
        profile = profile.scaled(0.5)
        population = generate_population(
            world, PopulationConfig(size=profile.swarm_size), rng
        )
    return Engine(world, testbed, profile, population, EngineConfig(duration_s=1.0, seed=seed))


@pytest.mark.parametrize("name", ["napa-scale", "pplive"])
def test_code_rows_match_plain_compares_and_hop_counts(name):
    """Every bit of every probe's row against its definition, over the
    whole directory (same-subnet peers and the probes included)."""
    eng = _engine(name)
    assert all(p.code == b"" for p in eng._probes)  # rows are built by run()
    eng.run()
    paths = eng.world.paths
    thr = eng.config.hop_near_threshold
    n = eng.n_remote + eng.n_probe
    index = paths.transit_index(eng._asn)
    span = paths.config.jitter_span
    band_near = set()
    for probe in eng._probes:
        g = probe.gidx
        codes = probe.codes
        assert len(probe.code) == n
        assert np.array_equal((codes & CODE_BW) > 0, eng._highbw)
        assert np.array_equal((codes & CODE_AS) > 0, eng._asn == eng._asn[g])
        assert np.array_equal((codes & CODE_CC) > 0, eng._cc == eng._cc[g])
        assert np.array_equal((codes & CODE_NET) > 0, eng._subnet == eng._subnet[g])
        hops = paths.hops_many(
            np.full(n, eng._ip[g]),
            np.full(n, eng._asn[g]),
            np.full(n, eng._subnet[g]),
            np.full(n, eng._access_depth[g]),
            eng._ip,
            eng._asn,
            eng._subnet,
            eng._access_depth,
        )
        near = hops < thr
        got = paths.closer_than(thr, g, eng._ip, eng._subnet, eng._access_depth, index)
        assert np.array_equal(got, near)
        expected = near if eng._need_hop else np.zeros(n, dtype=bool)
        assert np.array_equal((codes & CODE_NEAR) > 0, expected)
        # Peers whose answer hangs on the pair jitter: transit plus
        # depths within ``jitter_span - 1`` below the threshold.
        zero = (eng._subnet == eng._subnet[g]) | (eng._ip == eng._ip[g])
        base = hops - pair_randint(eng._ip[g], eng._ip, span, paths.config.seed)
        band = ~zero & (base < thr) & (base + span - 1 >= thr)
        band_near.update(near[band].tolist())
    assert eng._need_hop == (name == "napa-scale")
    # The shortcut's hashed band is exercised both ways, not vacuous.
    assert band_near == {True, False}
