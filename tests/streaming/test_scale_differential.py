"""Paper-scale differential suite: representation and engine invariance.

Two independence claims make the napa-scale profile trustworthy:

* **Representation independence** — a :class:`SparseSwarm` and its own
  ``peers()`` object view describe the same population, so an engine fed
  either must emit byte-identical traces.  This is the sparse ≡ dense
  contract at a size where the object directory is still affordable.
* **Engine independence** — under the full napa-scale feature set
  (sparse columns, cross-swarm audience, alias-sampled discovery, cohort
  ticking, the 1 Mbps HD channel) the object and SoA cores must stay
  byte-identical, mid-scale, for every digest the goldens pin.

Both are checked through full digests: transfer rows, signaling rows,
host rows, total events processed and the per-kind dispatch counters.
napa-scale runs on the SoA core and, below 10^6 peers, with eager peer
state by itself; the other side of each pair is forced through the test
seam (:mod:`tests.seams`).
"""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.population.demographics import crossswarm_audience
from repro.population.sparse import SparseSwarmConfig, generate_sparse_swarm
from repro.streaming.engine import EngineConfig, select_peer_state
from repro.streaming.profiles import get_profile
from repro.streaming.soa import ENGINES
from repro.topology.testbed import build_napa_wine_testbed
from repro.config import RngBundle
from repro.topology.world import World
from repro.trace.store import trace_digest

from tests.seams import forced, simulate_forced


def _digest(res):
    return {
        "transfers": trace_digest(res.transfers),
        "signaling": trace_digest(res.signaling),
        "hosts": trace_digest(res.hosts.rows),
        "events": res.events_processed,
        "dispatch": res.extras["engine_stats"]["dispatch_by_kind"],
    }


def _napa(size):
    return get_profile("napa-scale").scaled_swarm(size)


def _run_with_population(
    profile, representation, *, engine, seed, duration_s, peer_state=None
):
    """Simulate with the population passed as columns or as objects.

    Rebuilds :func:`simulate`'s plumbing with the population step made
    explicit, so the two representations of one drawn swarm can be fed to
    otherwise-identical engines.  Worlds are rebuilt per run — IP
    assignment advances per-AS cursors, so sharing one would entangle the
    populations.
    """
    world = World()
    testbed = build_napa_wine_testbed(world)
    demo = crossswarm_audience(probe_as_fraction=profile.probe_as_fraction)
    swarm = generate_sparse_swarm(
        world,
        SparseSwarmConfig(size=profile.swarm_size, demographics=demo),
        RngBundle(seed)["population"],
    )
    population = swarm if representation == "sparse" else swarm.peers()
    config = EngineConfig(duration_s=duration_s, seed=seed)
    with forced(peer_state=peer_state):
        return ENGINES[engine](world, testbed, profile, population, config).run()


class TestRepresentationIndependence:
    """SparseSwarm columns ≡ its RemotePeer view, byte for byte."""

    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_sparse_equals_dense_small_n(self, engine):
        profile = _napa(800)
        kw = dict(engine=engine, seed=7, duration_s=60.0)
        sparse = _digest(_run_with_population(profile, "sparse", **kw))
        dense = _digest(_run_with_population(profile, "dense", **kw))
        assert sparse == dense

    def test_representations_share_population_identity(self):
        """Both views come from one draw — same IPs, same link plans."""
        world = World()
        demo = crossswarm_audience(probe_as_fraction=0.005)
        swarm = generate_sparse_swarm(
            world,
            SparseSwarmConfig(size=500, demographics=demo),
            RngBundle(7)["population"],
        )
        cols = swarm.columns()
        peers = swarm.peers()
        assert [p.endpoint.ip for p in peers] == cols.ip.tolist()
        assert [p.endpoint.access.up_bps for p in peers] == cols.up_bps.tolist()


class TestEngineIndependenceAtScale:
    """Object ≡ SoA under the full napa-scale feature set, mid-scale."""

    def test_napa_scale_mid_swarm_byte_identity(self):
        profile = _napa(2500)
        a = _digest(simulate_forced(profile, seed=7, duration_s=90.0, engine="object"))
        b = _digest(simulate_forced(profile, seed=7, duration_s=90.0, engine="soa"))
        assert a == b

    def test_napa_scale_alias_discovery_survives_reseed(self):
        profile = _napa(1200)
        for seed in (3, 19):
            a = _digest(simulate_forced(profile, seed=seed, duration_s=45.0, engine="object"))
            b = _digest(simulate_forced(profile, seed=seed, duration_s=45.0, engine="soa"))
            assert a == b, seed

    @pytest.mark.parametrize("cohort", [True, False])
    def test_engines_agree_under_either_tick_schedule(self, cohort):
        """Cohort ticking changes *when* probes tick (one shared clock vs
        staggered offsets) — a profile-level behaviour both cores must
        reproduce identically.  The SoA core's multi-probe batching only
        exists under the cohort schedule, so the ``False`` leg pins the
        fallback path too."""
        profile = replace(_napa(1200), tick_cohort=cohort)
        a = _digest(simulate_forced(profile, seed=7, duration_s=45.0, engine="object"))
        b = _digest(simulate_forced(profile, seed=7, duration_s=45.0, engine="soa"))
        assert a == b


class TestLazyPeerState:
    """Lazy materialisation ≡ eager precompute, byte for byte.

    The mega-scale kernels (on-demand score rows, first-contact busy and
    latency state, blockwise availability) must compute the very same
    IEEE doubles the eager path precomputes up front — checked at test
    scale across both engine cores and both population representations,
    including the mega-scale profile's own configuration resized down.
    """

    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_lazy_equals_eager_both_engines(self, engine):
        base = _napa(1200)
        kw = dict(seed=7, duration_s=45.0, engine=engine)
        a = _digest(simulate_forced(base, peer_state="eager", **kw))
        b = _digest(simulate_forced(base, peer_state="lazy", **kw))
        assert a == b

    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_mega_scale_config_matches_eager_at_test_scale(self, engine):
        mega = get_profile("mega-scale")
        assert select_peer_state(mega.swarm_size) == "lazy"
        small = mega.scaled_swarm(2500)
        kw = dict(seed=7, duration_s=60.0, engine=engine)
        a = _digest(simulate_forced(small, peer_state="lazy", **kw))
        b = _digest(simulate_forced(small, peer_state="eager", **kw))
        assert a == b

    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_lazy_sparse_equals_dense(self, engine):
        profile = _napa(800)
        kw = dict(engine=engine, seed=7, duration_s=60.0, peer_state="lazy")
        sparse = _digest(_run_with_population(profile, "sparse", **kw))
        dense = _digest(_run_with_population(profile, "dense", **kw))
        assert sparse == dense

    @pytest.mark.parametrize("engine", ["object", "soa"])
    def test_lazy_stats_report_touched_subsets(self, engine):
        """The lazy counters expose the point of the whole layer: the
        resident per-remote state covers a strict subset of the swarm.
        They count protocol-level contacts, so both cores must agree."""
        profile = _napa(1200)
        res = simulate_forced(
            profile, engine=engine, peer_state="lazy", seed=7, duration_s=45.0
        )
        stats = res.extras["engine_stats"]
        assert stats["peer_state"] == "lazy"
        lazy = stats["lazy"]
        n = profile.swarm_size
        assert 0 < lazy["max_touched_busy"] < n
        assert 0 < lazy["max_touched_lat"] < n
        assert lazy["score_row_misses"] >= lazy["score_rows_cached"] > 0

    def test_lazy_counters_engine_agnostic(self):
        kw = dict(peer_state="lazy", seed=7, duration_s=45.0)
        a = simulate_forced(_napa(1200), engine="object", **kw)
        b = simulate_forced(_napa(1200), engine="soa", **kw)
        assert (
            a.extras["engine_stats"]["lazy"] == b.extras["engine_stats"]["lazy"]
        )


class TestScaleValidation:
    def test_full_size_profile_is_sparse_and_cohorted(self):
        prof = get_profile("napa-scale")
        assert prof.swarm == "sparse"
        assert prof.discovery == "alias"
        assert prof.tick_cohort
        assert prof.swarm_size == 180_000

    def test_scaled_swarm_rejects_discovery_overflow(self):
        with pytest.raises(ConfigurationError, match="discovery reach"):
            _napa(100)
