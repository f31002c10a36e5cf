"""Application profiles (simulator ground truth)."""

import pytest

from repro.errors import ConfigurationError
from repro.streaming.profiles import (
    PROFILES,
    AppProfile,
    get_profile,
    pplive,
    pplive_popular,
    random_baseline,
    sopcast,
    tvants,
)


class TestRegistry:
    def test_all_profiles_instantiate(self):
        for name in PROFILES:
            assert get_profile(name).name == name

    def test_unknown_profile(self):
        with pytest.raises(ConfigurationError):
            get_profile("bittorrent")

    def test_paper_apps_present(self):
        assert {"pplive", "sopcast", "tvants"} <= set(PROFILES)


class TestPaperSignatures:
    """The profiles must encode the paper's qualitative app differences."""

    def test_reach_ordering(self):
        assert pplive().swarm_size > sopcast().swarm_size > tvants().swarm_size

    def test_pplive_contacts_most_aggressively(self):
        pp, tv = pplive(), tvants()
        pp_rate = pp.contact_batch / pp.contact_interval_s
        tv_rate = tv.contact_batch / tv.contact_interval_s
        assert pp_rate > 10 * tv_rate

    def test_all_apps_bandwidth_aware(self):
        for name in ("pplive", "sopcast", "tvants"):
            assert get_profile(name).provider_weights.bw > 1.0

    def test_sopcast_location_blind(self):
        p = sopcast()
        assert p.partner_weights.as_ == 0
        assert p.provider_weights.as_ == 0
        assert p.discovery_as_bias == 0

    def test_tvants_strongest_as_discovery(self):
        assert tvants().discovery_as_bias > pplive().discovery_as_bias
        assert tvants().discovery_as_bias > sopcast().discovery_as_bias

    def test_pplive_heaviest_demand(self):
        assert pplive().remote_demand > 3 * sopcast().remote_demand
        assert pplive().remote_demand > 3 * tvants().remote_demand

    def test_pplive_heaviest_signaling(self):
        assert pplive().buffermap_bytes / pplive().buffermap_interval_s > \
            sopcast().buffermap_bytes / sopcast().buffermap_interval_s

    def test_no_profile_has_hop_awareness(self):
        # The paper found none; our ground truth must embed none.
        for name in ("pplive", "sopcast", "tvants"):
            p = get_profile(name)
            assert p.partner_weights.hop == 0
            assert p.provider_weights.hop == 0

    def test_random_baseline_is_oblivious(self):
        p = random_baseline()
        assert not p.partner_weights.any_awareness()
        assert not p.provider_weights.any_awareness()

    def test_popular_variant_boosts_local_audience(self):
        pop = pplive_popular()
        assert pop.eu_audience_boost > 1.0
        assert pop.probe_as_fraction >= pplive().probe_as_fraction


class TestScaling:
    def test_scaled_shrinks(self):
        p = pplive().scaled(0.25)
        assert p.swarm_size == 1000
        assert p.tracker_initial == 75

    def test_scaled_floors(self):
        p = tvants().scaled(0.001)
        assert p.swarm_size >= 10
        assert p.contact_batch >= 1

    def test_bad_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            tvants().scaled(0.0)


class TestPeerState:
    """The mega profile and paper-scale swarm validation."""

    def test_mega_scale_profile_shape(self):
        p = get_profile("mega-scale")
        assert p.swarm_size == 1_000_000
        assert p.swarm == "sparse"
        assert p.discovery == "alias"
        assert p.tick_cohort

    def test_scaled_swarm_error_names_reach_and_limit(self):
        prof = get_profile("napa-scale")
        with pytest.raises(ConfigurationError) as exc_info:
            prof.scaled_swarm(150)
        msg = str(exc_info.value)
        assert "swarm size 150" in msg
        assert "discovery reach of 200" in msg
        assert "tracker_initial=200" in msg
        assert "size >= 200" in msg


class TestValidation:
    def test_negative_swarm_rejected(self):
        with pytest.raises(ConfigurationError):
            AppProfile(name="x", swarm_size=-1)

    def test_zero_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            AppProfile(name="x", contact_interval_s=0)

    def test_zero_partners_rejected(self):
        with pytest.raises(ConfigurationError):
            AppProfile(name="x", max_partners=0)

    def test_negative_demand_rejected(self):
        with pytest.raises(ConfigurationError):
            AppProfile(name="x", remote_demand=-1)
