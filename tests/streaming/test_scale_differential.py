"""Paper-scale differential suite: representation and engine invariance.

Two independence claims make the napa-scale profile trustworthy:

* **Representation independence** — the object core ran one drawn swarm
  twice, fed as numpy columns and as one object per remote, and froze
  byte-identical digests for the two.  The engine takes columns only, so
  its one run must equal both frozen entries, and its directory must
  hold exactly the columns the generator drew.
* **Engine independence** — under the full napa-scale feature set
  (sparse columns, cross-swarm audience, alias-sampled discovery, cohort
  ticking, the 1 Mbps HD channel) the engine must stay byte-identical,
  mid-scale, to the deleted object engine core, whose output for every
  case here is frozen in ``tests/golden/object_core_hashes.json``.

Both are checked through full digests: transfer rows, signaling rows,
host rows, total events processed and the per-kind dispatch and
schedule counters.  The object core also ran some cases with eager and
with lazy peer state; the engine has one peer-state mode now (one
awareness-code row per probe), so each such pair is one run here that
must match both frozen entries.
"""

import functools
import json

import numpy as np
import pytest

from repro.config import RngBundle
from repro.errors import ConfigurationError
from repro.population.demographics import crossswarm_audience
from repro.population.generator import PopulationConfig, generate_population
from repro.population.sparse import generate_sparse_swarm
from repro.streaming.engine import Engine, EngineConfig, ProbeState
from repro.streaming.profiles import get_profile
from repro.topology.testbed import build_napa_wine_testbed
from repro.topology.world import World

from tests.golden.regen_engine import (
    OBJECT_CORE_HASHES_PATH,
    SCALE_CASES,
    full_digest,
    scale_case_result,
)


@pytest.fixture(scope="module")
def object_core():
    """The object core's frozen digests, by case key."""
    return json.loads(OBJECT_CORE_HASHES_PATH.read_text())["hashes"]


def _napa(size):
    return get_profile("napa-scale").scaled_swarm(size)


#: Case fields :func:`scale_case_result` ignores: cases that differ only
#: in them are one run.
_IGNORED_FIELDS = ("peer_state", "representation")


def _case(key):
    """Full digest of the :data:`SCALE_CASES` run ``key``.

    Cached by the run the case names, so a pair of cases that differ only
    in :data:`_IGNORED_FIELDS` simulates once.
    """
    case = SCALE_CASES[key]
    return _run(tuple(sorted((k, v) for k, v in case.items() if k not in _IGNORED_FIELDS)))


@functools.lru_cache(maxsize=None)
def _run(case_items):
    """Full digest of one run, keyed by its case fields (run once)."""
    return full_digest(scale_case_result(dict(case_items)))


@functools.lru_cache(maxsize=None)
def _napa_case_engine():
    """The engine after the ``napa-lazy`` case, kept for state checks.

    Built like :func:`scale_case_result`'s sparse path (the population
    step ``simulate`` takes for napa-scale), returned with the run's full
    digest so a check can tie the state to the frozen entry.
    """
    case = SCALE_CASES["napa-lazy"]
    profile = _napa(case["size"])
    world = World()
    testbed = build_napa_wine_testbed(world)
    demo = crossswarm_audience(probe_as_fraction=profile.probe_as_fraction)
    swarm = generate_sparse_swarm(
        world,
        PopulationConfig(size=profile.swarm_size, demographics=demo),
        RngBundle(case["seed"])["population"],
    )
    config = EngineConfig(duration_s=case["duration_s"], seed=case["seed"])
    eng = Engine(world, testbed, profile, swarm, config)
    return eng, full_digest(eng.run())


def _trace_fields(frozen):
    """A frozen entry minus the residency counters of the deleted lazy
    peer-state mode — every field one run of the engine reports."""
    return {k: v for k, v in frozen.items() if k != "lazy"}


def test_fixture_describes_these_cases():
    frozen = json.loads(OBJECT_CORE_HASHES_PATH.read_text())
    assert frozen["scale_cases"] == SCALE_CASES
    assert set(SCALE_CASES) <= set(frozen["hashes"])


class TestRepresentationIndependence:
    """One column run ≡ the object core's columns and object-view runs."""

    def test_sparse_equals_dense_small_n(self, object_core):
        assert SCALE_CASES["napa-lazy-dense"] == dict(
            SCALE_CASES["napa-lazy-sparse"], representation="dense"
        )
        digest = _case("napa-lazy-dense")
        for key in ("napa-lazy-dense", "napa-lazy-sparse"):
            assert digest == _trace_fields(object_core[key]), key

    def test_representations_share_population_identity(self):
        """The engine's remote directory is the generator's columns, for
        either draw scheme: same IPs, ASes, countries and link plans."""
        demo = crossswarm_audience(probe_as_fraction=0.005)
        for generate in (generate_population, generate_sparse_swarm):
            world = World()
            cols = generate(
                world, PopulationConfig(size=800, demographics=demo), RngBundle(7)["population"]
            )
            profile = _napa(800)
            eng = Engine(
                world, build_napa_wine_testbed(world), profile, cols, EngineConfig(duration_s=1.0)
            )
            r = eng.n_remote
            assert r == len(cols) == profile.swarm_size
            for got, want in [
                (eng._ip, cols.ip),
                (eng._asn, cols.asn),
                (np.array(eng._cc_labels)[eng._cc], cols.cc),
                (eng._subnet, cols.subnet),
                (eng._up, cols.up_bps),
                (eng._down, cols.down_bps),
                (eng._highbw, cols.highbw),
                (eng._firewalled, cols.firewalled),
                (eng._initial_ttl, cols.initial_ttl),
                (eng._access_depth, cols.access_depth),
            ]:
                assert np.array_equal(got[:r], want), generate.__name__


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
    """The object core's forced eager/lazy pairs, now one run each.

    The object core ran these cases once with swarm-wide score matrices
    (eager) and once with first-touch state (lazy), byte-identical to
    each other.  The engine's one peer-state mode — an awareness-code
    row per probe, scores and latencies by table lookup — runs each case
    once and must equal both frozen entries on every trace field
    (``reference="object"``); the two case configurations of a pair now
    run the same code, so they must agree live too (``reference="soa"``).
    """

    @staticmethod
    def _check_pair(run_key, *frozen_keys, object_core):
        digest = _case(run_key)
        for key in frozen_keys:
            assert digest == _trace_fields(object_core[key]), key

    @pytest.mark.parametrize("reference", ["object", "soa"])
    def test_lazy_equals_eager_both_engines(self, reference, object_core):
        assert SCALE_CASES["napa-eager"] == dict(SCALE_CASES["napa-lazy"], peer_state="eager")
        if reference == "object":
            self._check_pair("napa-lazy", "napa-eager", "napa-lazy", object_core=object_core)
        else:
            assert _case("napa-lazy") == _case("napa-eager")

    def test_mega_scale_config_matches_eager_at_test_scale(self, object_core):
        assert SCALE_CASES["mega-eager"] == dict(SCALE_CASES["mega-lazy"], peer_state="eager")
        self._check_pair("mega-lazy", "mega-eager", "mega-lazy", object_core=object_core)

    @pytest.mark.parametrize("reference", ["object", "soa"])
    def test_lazy_sparse_equals_dense(self, reference, object_core):
        if reference == "object":
            self._check_pair(
                "napa-lazy-sparse", "napa-lazy-sparse", "napa-lazy-dense", object_core=object_core
            )
        else:
            assert _case("napa-lazy-sparse") == _case("napa-lazy-dense")

    @pytest.mark.parametrize("reference", ["object", "soa"])
    def test_lazy_stats_report_touched_subsets(self, reference, object_core):
        """Per-remote mutable state covers a strict subset of the swarm —
        in the object core's frozen lazy counters, and in this engine's
        busy counters, which hold only the providers a probe touched."""
        if reference == "object":
            n = _napa(1200).swarm_size
            lazy = object_core["napa-lazy"]["lazy"]
            assert 0 < lazy["max_touched_busy"] < n
            assert 0 < lazy["max_touched_lat"] < n
            assert lazy["score_row_misses"] >= lazy["score_rows_cached"] > 0
        else:
            eng, _ = _napa_case_engine()
            n = eng.n_remote + eng.n_probe
            for probe in eng._probes:
                assert 0 < len(probe.busy) < n

    def test_lazy_counters_engine_agnostic(self, object_core):
        """Busy counters are created on a probe's first request to a
        provider — a protocol-level contact — so the widest touched set
        matches the object core's frozen ``max_touched_busy``."""
        eng, digest = _napa_case_engine()
        assert digest == _trace_fields(object_core["napa-lazy"])
        touched = max(len(probe.busy) for probe in eng._probes)
        assert touched == object_core["napa-lazy"]["lazy"]["max_touched_busy"]

    def test_state_bounded_by_touched_peers(self):
        """After a test-scale napa-scale run each probe holds one n-byte
        code row (its busy counters are bounded by the touched-subset
        check above); no float64 array spans probes × peers anywhere in
        the engine."""
        eng, _ = _napa_case_engine()
        n = eng.n_remote + eng.n_probe
        for probe in eng._probes:
            assert isinstance(probe.code, bytes) and len(probe.code) == n
        big = eng.n_probe * n
        seen = set()

        def float_matrices(obj, depth=0):
            if id(obj) in seen or depth > 4:
                return
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                if obj.dtype == np.float64 and obj.size >= big:
                    yield obj.shape
            elif isinstance(obj, dict):
                for v in obj.values():
                    yield from float_matrices(v, depth + 1)
            elif isinstance(obj, (list, tuple, set)):
                for v in obj:
                    yield from float_matrices(v, depth + 1)
            elif isinstance(obj, ProbeState):
                for name in ProbeState.__slots__:
                    yield from float_matrices(getattr(obj, name), depth + 1)

        assert list(float_matrices(vars(eng))) == []


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

