"""The block-wise draw scheme and the biased discovery sampler.

The sparse scheme's contract has two legs:

* **determinism** — columns are a pure function of the single root draw
  and the size, drawn in :data:`BLOCK_SIZE`-peer blocks from the root's
  ``SeedSequence`` children in block order; the whole population costs
  tens of bytes per peer;
* **fidelity** — the drawn *distributions* match the dense generator's
  rules (access plans, campus placement, TTL mix) even though the
  streams differ.

The engine's alias-discovery sampler draws peer indices over these
columns from two-valued weights (``1 + bias`` for the chooser's AS, 1
elsewhere); :class:`TestBiasedSampler` pins its distribution and its
draw consumption directly.
"""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.population.demographics import cctv1_audience
from repro.population.generator import PopulationConfig
from repro.population.sparse import BLOCK_SIZE, generate_sparse_swarm
from repro.streaming.engine import _BiasedSampler
from repro.streaming.profiles import get_profile
from repro.topology.world import PROBE_AS_NUMBERS, World


@pytest.fixture(scope="module")
def sparse_world():
    return World()


def _swarm(world, size=5000, seed=3, **cfg_kw):
    return generate_sparse_swarm(
        world, PopulationConfig(size=size, **cfg_kw), np.random.default_rng(seed)
    )


def _digest(cols) -> str:
    h = hashlib.sha256()
    for name in sorted(type(cols).__dataclass_fields__):
        h.update(name.encode())
        h.update(np.ascontiguousarray(getattr(cols, name)).tobytes())
    return h.hexdigest()


class TestConfig:
    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            PopulationConfig(size=-1)

    def test_bad_unix_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            PopulationConfig(size=10, unix_fraction=1.5)

    def test_zero_size_ok(self, sparse_world):
        cols = _swarm(sparse_world, size=0)
        assert len(cols) == 0
        assert cols.ip.dtype == np.uint32 and cols.cc.dtype == np.dtype("U2")


class TestDeterminism:
    def test_single_rng_draw_consumed(self, sparse_world):
        """The swarm consumes exactly one draw from the population stream."""
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)
        generate_sparse_swarm(sparse_world, PopulationConfig(size=3000), rng_a)
        rng_b.integers(0, 2**63)
        # Both streams must now be in the same state.
        assert rng_a.integers(0, 2**31) == rng_b.integers(0, 2**31)

    def test_same_seed_same_columns(self):
        # Fresh worlds: IP assignment advances per-AS subnet cursors, so
        # two swarms sharing one world would differ for that reason alone.
        a = _swarm(World(), seed=7)
        b = _swarm(World(), seed=7)
        for name in type(a).__dataclass_fields__:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_multi_block_columns_are_pinned(self):
        """A three-block swarm, byte for byte: the digest was recorded from
        the block-lazy generator this scheme replaced, so the block seeds,
        their order and the per-block draw plan are all unchanged."""
        cols = _swarm(World(), size=20_000, seed=11)
        assert -(-len(cols) // BLOCK_SIZE) == 3
        assert _digest(cols) == (
            "040f3a587af30e537d33b08c8b0db8cd7ac9db2fd9b5ea3abafe0759befb5997"
        )


class TestFidelity:
    def test_memory_per_peer_is_tens_of_bytes(self, sparse_world):
        cols = _swarm(sparse_world, size=20_000)
        assert cols.nbytes / len(cols) < 100  # an object per peer costs ~1 kB

    def test_unique_ips(self, sparse_world):
        cols = _swarm(sparse_world, size=5000)
        assert len(np.unique(cols.ip)) == len(cols)

    def test_demographics_rules_hold(self, sparse_world):
        cols = _swarm(sparse_world, size=8000)
        cn = np.mean(cols.cc == "CN")
        assert cn > 0.5  # CCTV-1 audience is China-dominated
        unix = np.mean(cols.initial_ttl == 64)
        assert 0 < unix < 0.15
        campus_asns = {asn for asn, _ in PROBE_AS_NUMBERS.values()}
        in_campus = np.isin(cols.asn, sorted(campus_asns))
        assert in_campus.any()
        assert set(np.unique(cols.cc[in_campus])) <= {"IT", "FR", "HU", "PL"}

    def test_probe_as_fraction_zero_means_no_campus(self, sparse_world):
        demo = cctv1_audience(probe_as_fraction=0.0)
        cols = _swarm(sparse_world, size=4000, demographics=demo)
        campus_asns = {asn for asn, _ in PROBE_AS_NUMBERS.values()}
        assert not np.isin(cols.asn, sorted(campus_asns)).any()


class TestBiasedSampler:
    """The exact sampler over the weights ``1 + bias·[same AS]``."""

    N = 50
    SAME = np.array([3, 7, 11, 20], dtype=np.int64)

    @staticmethod
    def _weights(n, same, bias):
        w = np.ones(n)
        w[same] += bias
        return w / w.sum()

    def test_deterministic(self):
        sampler = _BiasedSampler(self.N, self.SAME, 4.0)
        a = sampler.draw(np.random.default_rng(4), 100)
        b = sampler.draw(np.random.default_rng(4), 100)
        assert np.array_equal(a, b)

    def test_distribution_matches_weights(self):
        sampler = _BiasedSampler(self.N, self.SAME, 4.0)
        draws = sampler.draw(np.random.default_rng(1), 200_000)
        freq = np.bincount(draws, minlength=self.N) / len(draws)
        assert np.allclose(freq, self._weights(self.N, self.SAME, 4.0), atol=0.003)

    @pytest.mark.parametrize("same", [SAME, np.zeros(0, dtype=np.int64)], ids=["as", "no-as"])
    def test_zero_bias_is_one_uniform_draw(self, same):
        """Without a bias the sampler is the uniform one: one ``integers``
        batch, the same indices, the same generator state after."""
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        draws = _BiasedSampler(self.N, same, 0.0).draw(rng, 100)
        assert np.array_equal(draws, ref.integers(0, self.N, size=100))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_matches_generator_choice_frequencies(self):
        """Property: biased draws follow the normalised two-valued weights
        for any directory size, same-AS subset and bias."""
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=30, deadline=None)
        @given(
            n=st.integers(min_value=1, max_value=30),
            picks=st.lists(st.integers(min_value=0, max_value=29), max_size=10),
            bias=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            seed=st.integers(min_value=0, max_value=2**31 - 1),
        )
        def check(n, picks, bias, seed):
            same = np.unique([p % n for p in picks]).astype(np.int64)
            p = self._weights(n, same, bias)
            draws = _BiasedSampler(n, same, bias).draw(np.random.default_rng(seed), 40_000)
            freq = np.bincount(draws, minlength=n) / len(draws)
            assert np.allclose(freq, p, atol=0.03)

        check()


class TestScaledSwarm:
    """The validating resize used by sparse paper-scale profiles."""

    def test_scaled_routes_sparse_profiles_through_validation(self):
        prof = get_profile("napa-scale")
        shrunk = prof.scaled(0.05)
        assert shrunk.swarm_size == 9000
        assert shrunk.tracker_initial == prof.tracker_initial  # saturates

    def test_discovery_reach_overflow_is_an_error(self):
        prof = get_profile("napa-scale")
        with pytest.raises(ConfigurationError, match="discovery reach"):
            prof.scaled_swarm(prof.tracker_initial - 1)

    def test_no_silent_floor(self):
        prof = get_profile("napa-scale")
        with pytest.raises(ConfigurationError):
            prof.scaled_swarm(0)
        with pytest.raises(ConfigurationError):
            prof.scaled(1e-9)  # rounds to zero peers: error, not a clamp

    def test_dense_profiles_keep_legacy_floors(self):
        prof = get_profile("pplive")
        tiny = prof.scaled(1e-9)
        assert tiny.swarm_size == 10  # the historical clamp, unchanged
