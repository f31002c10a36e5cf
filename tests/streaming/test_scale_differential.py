"""Paper-scale differential suite: representation and engine invariance.

Two independence claims make the napa-scale profile trustworthy:

* **Representation independence** — a :class:`SparseSwarm` and its own
  ``peers()`` object view describe the same population, so an engine fed
  either must emit byte-identical traces.  This is the sparse ≡ dense
  contract at a size where the object directory is still affordable.
* **Engine independence** — under the full napa-scale feature set
  (sparse columns, cross-swarm audience, alias-sampled discovery, cohort
  ticking, the 1 Mbps HD channel) the engine must stay byte-identical,
  mid-scale, to the deleted object engine core, whose output for every
  case here is frozen in ``tests/golden/object_core_hashes.json``.

Both are checked through full digests: transfer rows, signaling rows,
host rows, total events processed and the per-kind dispatch and
schedule counters.  napa-scale runs with eager peer state below 10^6
peers by itself; the other side of each lazy/eager pair is forced
through the test seam (:mod:`tests.seams`).
"""

import functools
import json

import pytest

from repro.config import RngBundle
from repro.errors import ConfigurationError
from repro.population.demographics import crossswarm_audience
from repro.population.sparse import SparseSwarmConfig, generate_sparse_swarm
from repro.streaming.engine import select_peer_state
from repro.streaming.profiles import get_profile
from repro.topology.world import World

from tests.golden.regen_engine import (
    OBJECT_CORE_HASHES_PATH,
    SCALE_CASES,
    full_digest,
    scale_case_result,
)
from tests.seams import simulate_forced


@pytest.fixture(scope="module")
def object_core():
    """The object core's frozen digests, by case key."""
    return json.loads(OBJECT_CORE_HASHES_PATH.read_text())["hashes"]


def _napa(size):
    return get_profile("napa-scale").scaled_swarm(size)


@functools.lru_cache(maxsize=None)
def _case(key):
    """Full digest of the :data:`SCALE_CASES` run ``key`` (run once)."""
    return full_digest(scale_case_result(SCALE_CASES[key]))


def _without_lazy(digest):
    return {k: v for k, v in digest.items() if k != "lazy"}


def test_fixture_describes_these_cases():
    frozen = json.loads(OBJECT_CORE_HASHES_PATH.read_text())
    assert frozen["scale_cases"] == SCALE_CASES
    assert set(SCALE_CASES) <= set(frozen["hashes"])


class TestRepresentationIndependence:
    """SparseSwarm columns ≡ its RemotePeer view, byte for byte."""

    def test_sparse_equals_dense_small_n(self):
        case = dict(profile="napa-scale", size=800, seed=7, duration_s=60.0)
        sparse = scale_case_result(dict(case, representation="sparse"))
        dense = scale_case_result(dict(case, representation="dense"))
        assert full_digest(sparse) == full_digest(dense)

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
    """The engine ≡ the frozen object core under the napa-scale feature set."""

    def test_napa_scale_mid_swarm_byte_identity(self, object_core):
        assert _case("napa-mid-swarm") == object_core["napa-mid-swarm"]

    def test_napa_scale_alias_discovery_survives_reseed(self, object_core):
        for key in ("napa-alias-seed3", "napa-alias-seed19"):
            assert _case(key) == object_core[key], key

    @pytest.mark.parametrize("cohort", [True, False])
    def test_engines_agree_under_either_tick_schedule(self, cohort, object_core):
        """Cohort ticking changes *when* probes tick (one shared clock vs
        staggered offsets) — a profile-level behaviour the engine must
        reproduce under both drivers.  The multi-probe batching only
        exists under the cohort schedule, so the ``False`` leg pins the
        per-probe tick path at scale too."""
        key = "napa-cohort-ticks" if cohort else "napa-staggered-ticks"
        assert _case(key) == object_core[key]


class TestLazyPeerState:
    """Lazy materialisation ≡ eager precompute, byte for byte.

    The mega-scale kernels (on-demand score rows, first-contact busy and
    latency state, blockwise availability) must compute the very same
    IEEE doubles the eager path precomputes up front — checked at test
    scale against a live eager run and against the object core's frozen
    runs (``reference``), including the mega-scale profile's own
    configuration resized down.
    """

    @staticmethod
    def _check_lazy_pair(prefix, reference, object_core):
        lazy = _case(f"{prefix}-lazy")
        if reference == "object":
            assert lazy == object_core[f"{prefix}-lazy"]
            eager = object_core[f"{prefix}-eager"]
        else:
            eager = _case(f"{prefix}-eager")
        assert _without_lazy(lazy) == eager

    @pytest.mark.parametrize("reference", ["object", "soa"])
    def test_lazy_equals_eager_both_engines(self, reference, object_core):
        self._check_lazy_pair("napa", reference, object_core)

    @pytest.mark.parametrize("reference", ["object", "soa"])
    def test_mega_scale_config_matches_eager_at_test_scale(self, reference, object_core):
        assert select_peer_state(get_profile("mega-scale").swarm_size) == "lazy"
        self._check_lazy_pair("mega", reference, object_core)

    @pytest.mark.parametrize("reference", ["object", "soa"])
    def test_lazy_sparse_equals_dense(self, reference, object_core):
        sparse = _case("napa-lazy-sparse")
        if reference == "object":
            assert sparse == object_core["napa-lazy-sparse"]
            assert sparse == object_core["napa-lazy-dense"]
        else:
            assert sparse == _case("napa-lazy-dense")

    @pytest.mark.parametrize("reference", ["object", "soa"])
    def test_lazy_stats_report_touched_subsets(self, reference, object_core):
        """The lazy counters expose the point of the whole layer: the
        resident per-remote state covers a strict subset of the swarm —
        in this run and in the object core's frozen one."""
        if reference == "object":
            lazy = object_core["napa-lazy"]["lazy"]
        else:
            res = simulate_forced(_napa(1200), peer_state="lazy", seed=7, duration_s=45.0)
            assert res.extras["engine_stats"]["peer_state"] == "lazy"
            lazy = res.extras["engine_stats"]["lazy"]
        n = _napa(1200).swarm_size
        assert 0 < lazy["max_touched_busy"] < n
        assert 0 < lazy["max_touched_lat"] < n
        assert lazy["score_row_misses"] >= lazy["score_rows_cached"] > 0

    def test_lazy_counters_engine_agnostic(self, object_core):
        """The lazy counters count protocol-level contacts, so they match
        the object core's."""
        assert _case("napa-lazy")["lazy"] == object_core["napa-lazy"]["lazy"]


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

