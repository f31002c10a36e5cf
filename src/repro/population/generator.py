"""Swarm instantiation: place remote peers on the synthetic Internet.

Each remote peer gets an endpoint (IP inside a consumer ISP of its country,
or — for a small configurable fraction of probe-country peers — inside a
probe campus AS), an access link drawn from its country's bandwidth mix,
and an initial TTL (a small fraction of peers run non-Windows stacks).
A population is held as aligned numpy columns (:class:`SwarmColumns`),
whichever draw scheme produced it — the per-peer loop here or the
block-wise bulk draws of :mod:`repro.population.sparse`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.population.demographics import Demographics, cctv1_audience
from repro.topology.access import AccessClass, AccessLink, dsl, ftth, lan
from repro.topology.geography import PROBE_COUNTRIES
from repro.topology.host import INITIAL_TTL_UNIX, INITIAL_TTL_WINDOWS
from repro.topology.ip import subnet_key
from repro.topology.paths import ACCESS_DEPTH
from repro.topology.world import PROBE_AS_NUMBERS, World

#: ``SwarmColumns.kind`` codes, aligned with :class:`AccessClass` order.
KIND_LAN, KIND_DSL, KIND_CATV, KIND_FTTH = 0, 1, 2, 3
_KIND_OF = {cls: code for code, cls in enumerate(AccessClass)}


@dataclass(frozen=True, slots=True)
class SwarmColumns:
    """A remote population as aligned numpy columns, one entry per peer."""

    ip: np.ndarray            # uint32
    subnet: np.ndarray        # uint32 (masked network address)
    asn: np.ndarray           # int32
    cc: np.ndarray            # 'U2' (the *AS's* country)
    kind: np.ndarray          # int8 access-class code
    down_bps: np.ndarray      # float64
    up_bps: np.ndarray        # float64
    nat: np.ndarray           # bool
    firewalled: np.ndarray    # bool (generated remotes never firewall)
    highbw: np.ndarray        # bool (uplink > 10 Mb/s)
    initial_ttl: np.ndarray   # uint8
    access_depth: np.ndarray  # uint8

    def __len__(self) -> int:
        return len(self.ip)

    @property
    def nbytes(self) -> int:
        """Total memory held by the columns."""
        return sum(
            getattr(self, name).nbytes for name in self.__dataclass_fields__
        )


@dataclass(frozen=True, slots=True)
class PopulationConfig:
    """Swarm size and composition.

    Parameters
    ----------
    size:
        Number of remote peers.
    demographics:
        Country / bandwidth mixes; defaults to the CCTV-1 audience.
    unix_fraction:
        Fraction of peers whose OS stamps TTL 64 instead of 128 (the
        hop-inference heuristic must detect the initial TTL, §III-B).
    """

    size: int
    demographics: Demographics | None = None
    unix_fraction: float = 0.04

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ConfigurationError(f"population size must be >= 0, got {self.size}")
        if not 0 <= self.unix_fraction <= 1:
            raise ConfigurationError("unix_fraction must be in [0, 1]")


#: Probe-country code → campus ASNs available for "same-AS civilians".
_PROBE_AS_BY_CC: dict[str, list[int]] = {}
for _name, (_asn, _cc) in PROBE_AS_NUMBERS.items():
    _PROBE_AS_BY_CC.setdefault(_cc, []).append(_asn)


def generate_population(
    world: World,
    config: PopulationConfig,
    rng: np.random.Generator,
) -> SwarmColumns:
    """Generate ``config.size`` remote peers placed on ``world``, as columns.

    Deterministic given ``rng``.  Peers of probe countries land inside the
    probe campus ASes with probability ``demographics.probe_as_fraction``;
    everyone else goes to a consumer ISP of their country (or, if the
    country has none registered, a random foreign ISP — modelling
    mis-geolocated or satellite-connected stragglers).
    """
    demo = config.demographics or cctv1_audience()
    codes, probs = demo.normalised_weights()
    countries = rng.choice(len(codes), size=config.size, p=probs)
    all_isps = [asn for cc in codes for asn in world.access_isps(cc)]
    if not all_isps:
        raise ConfigurationError("world has no consumer ISPs registered")

    # The per-peer draw *sequence* below is pinned by the golden host-table
    # hashes, so it cannot be collapsed into bulk per-class draws (that
    # scheme lives in repro.population.sparse).  What can change without
    # moving a single draw: scalar ``choice`` calls become the bit-identical
    # ``seq[integers(len(seq))]``, each peer keeps an index into a small
    # table of access plans, and IP assignment — which consumes no
    # randomness — is deferred and done in bulk after the loop.
    r_random = rng.random
    r_integers = rng.integers
    unix_fraction = config.unix_fraction
    probe_fraction = demo.probe_as_fraction
    highbw_by_cc = {cc: demo.highbw_for(cc) for cc in codes}
    isps_by_cc = {cc: world.access_isps(cc) or all_isps for cc in codes}
    campus_ok = {cc for cc in codes if cc in PROBE_COUNTRIES and cc in _PROBE_AS_BY_CC}

    # Access plans by index: the LAN plan, the three FTTH plans, then each
    # DSL plan on its first draw.  Per-peer plan indices become columns
    # with one gather per attribute after the loop.
    links: list[AccessLink] = [
        lan(100.0), ftth(100.0, 20.0), ftth(100.0, 50.0), ftth(100.0, 100.0)
    ]
    dsl_plans = (1.0, 2.0, 4.0, 6.0, 8.0)
    dsl_ups = (0.256, 0.384, 0.512, 0.640, 1.0)
    dsl_index: dict[tuple[int, int, bool], int] = {}

    def access_plan(highbw: bool) -> int:
        if highbw:
            # Campus/office LAN or fast fibre.
            if r_random() < 0.6:
                return 0
            return 1 + int(r_integers(3))
        # Consumer DSL/cable plans of the era (down/up in Mb/s).
        key = (int(r_integers(5)), int(r_integers(5)), bool(r_random() < 0.5))
        plan = dsl_index.get(key)
        if plan is None:
            plan = dsl_index[key] = len(links)
            links.append(dsl(dsl_plans[key[0]], dsl_ups[key[1]], nat=key[2]))
        return plan

    asns: list[int] = []
    plans: list[int] = []
    ttls: list[int] = []
    for ci in countries.tolist():
        cc = codes[ci]
        highbw = r_random() < highbw_by_cc[cc]
        if cc in campus_ok and r_random() < probe_fraction:
            campus = _PROBE_AS_BY_CC[cc]
            asn = campus[r_integers(len(campus))]
            # Campus-AS civilians are mostly on the institution LAN.
            plan = 0 if r_random() < 0.9 else access_plan(highbw)
        else:
            isps = isps_by_cc[cc]
            asn = isps[r_integers(len(isps))]
            plan = access_plan(highbw)
        asns.append(asn)
        plans.append(plan)
        ttls.append(INITIAL_TTL_UNIX if r_random() < unix_fraction else INITIAL_TTL_WINDOWS)

    idx = np.asarray(plans, dtype=np.intp)

    def by_plan(values: list, dtype) -> np.ndarray:
        return np.array(values, dtype=dtype)[idx]

    asn_arr = np.asarray(asns, dtype=np.int64)
    ips = world.bulk_remote_ips(asn_arr)
    cc_by_asn = {asn: world.registry.get(asn).country_code for asn in set(asns)}
    return SwarmColumns(
        ip=ips,
        subnet=subnet_key(ips, world.config.subnet_prefixlen),
        asn=asn_arr.astype(np.int32),
        cc=np.array([cc_by_asn[asn] for asn in asns], dtype="U2"),
        kind=by_plan([_KIND_OF[link.kind] for link in links], np.int8),
        down_bps=by_plan([link.down_bps for link in links], np.float64),
        up_bps=by_plan([link.up_bps for link in links], np.float64),
        nat=by_plan([link.nat for link in links], bool),
        firewalled=by_plan([link.firewall for link in links], bool),
        highbw=by_plan([link.is_high_bandwidth for link in links], bool),
        initial_ttl=np.array(ttls, dtype=np.uint8),
        access_depth=by_plan([ACCESS_DEPTH[link.kind] for link in links], np.uint8),
    )
