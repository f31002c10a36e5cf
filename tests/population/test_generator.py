"""Swarm generation on the synthetic Internet."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.population.demographics import Demographics, cctv1_audience
from repro.population.generator import PopulationConfig, generate_population
from repro.topology.access import HIGH_BW_THRESHOLD_BPS
from repro.topology.world import PROBE_AS_NUMBERS, World


@pytest.fixture(scope="module")
def pop_world():
    return World()


def _gen(world, size=600, seed=3, **demo_kw):
    demo = cctv1_audience(**demo_kw) if demo_kw else None
    return generate_population(
        world, PopulationConfig(size=size, demographics=demo),
        np.random.default_rng(seed),
    )


class TestConfig:
    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            PopulationConfig(size=-1)

    def test_bad_unix_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            PopulationConfig(size=10, unix_fraction=2.0)

    def test_zero_size_ok(self, pop_world):
        cols = _gen(pop_world, size=0)
        assert len(cols) == 0
        assert cols.ip.dtype == np.uint32 and cols.cc.dtype == np.dtype("U2")


class TestComposition:
    def test_size(self, pop_world):
        cols = _gen(pop_world)
        assert len(cols) == 600
        for name in type(cols).__dataclass_fields__:
            assert len(getattr(cols, name)) == 600, name

    def test_unique_ids_and_ips(self, pop_world):
        # A peer's id is its row; its IP must be unique too.
        cols = _gen(pop_world)
        assert len(np.unique(cols.ip)) == len(cols)

    def test_china_dominates(self, pop_world):
        cols = _gen(pop_world)
        assert np.mean(cols.cc == "CN") > 0.5

    def test_highbw_fraction_plausible(self, pop_world):
        cols = _gen(pop_world, size=1500)
        frac = np.mean(cols.highbw)
        assert 0.2 < frac < 0.55
        assert np.array_equal(cols.highbw, cols.up_bps > HIGH_BW_THRESHOLD_BPS)

    def test_some_campus_civilians(self, pop_world):
        cols = _gen(pop_world, size=1500)
        campus_asns = {asn for asn, _ in PROBE_AS_NUMBERS.values()}
        in_campus = np.isin(cols.asn, sorted(campus_asns))
        assert in_campus.any()
        # Campus civilians belong to probe countries only.
        assert set(cols.cc[in_campus].tolist()) <= {"IT", "FR", "HU", "PL"}

    def test_probe_as_fraction_zero_means_no_civilians(self, pop_world):
        cols = _gen(pop_world, size=800, probe_as_fraction=0.0)
        campus_asns = {asn for asn, _ in PROBE_AS_NUMBERS.values()}
        assert not np.isin(cols.asn, sorted(campus_asns)).any()

    def test_ttl_mix(self, pop_world):
        cols = _gen(pop_world, size=1500)
        assert 128 in set(cols.initial_ttl.tolist())
        unix = np.mean(cols.initial_ttl == 64)
        assert 0 < unix < 0.15

    def test_deterministic(self):
        c1 = _gen(World(), seed=9)
        c2 = _gen(World(), seed=9)
        for name in type(c1).__dataclass_fields__:
            assert np.array_equal(getattr(c1, name), getattr(c2, name)), name

    def test_seed_changes_population(self):
        c1 = _gen(World(), seed=1)
        c2 = _gen(World(), seed=2)
        assert not np.array_equal(c1.cc, c2.cc)

    def test_country_without_isp_falls_back(self, pop_world):
        demo = Demographics(country_weights={"CN": 1.0, "BR": 50.0})
        cols = generate_population(
            pop_world, PopulationConfig(size=50, demographics=demo),
            np.random.default_rng(0),
        )
        assert len(cols) == 50  # BR has an ISP in the default world; no crash
