"""The block-wise bulk draw scheme for paper-scale populations.

A profile's ``swarm`` field chooses how its population is *drawn*:
``"dense"`` runs the per-peer loop of
:func:`repro.population.generator.generate_population` (its draw
sequence is pinned by the paper-profile goldens), ``"sparse"`` runs
:func:`generate_sparse_swarm` here, which draws whole blocks of peers at
once and so scales to the measured ~1.8×10^5-peer swarms and beyond.
Both return the same :class:`~repro.population.generator.SwarmColumns`
(~40 bytes per peer); only the random stream layout differs.

Determinism contract
--------------------
The swarm consumes exactly **one** draw from the population RNG stream
(a 63-bit block-seed root); every per-peer attribute then comes from
per-block child generators spawned off a ``SeedSequence`` of that root,
one per :data:`BLOCK_SIZE` peers, in block order.  Columns are therefore
a pure function of ``(rng state, size)``.

Per block the draw sequence is fixed-width (every peer consumes the same
draws whether or not a branch uses them), which is what makes the whole
block vectorisable — this is the bulk-draw scheme the dense generator
cannot adopt without breaking its pinned golden hashes:

1.  country index        — ``choice(n_countries, size=B, p=probs)``
2.  high-bw uniform      — ``random(B)``        (``< highbw_for(cc)``)
3.  probe-AS uniform     — ``random(B)``        (``< probe_as_fraction``)
4.  AS pick integer      — ``integers(1 << 30, size=B)`` (mod table width)
5.  campus-LAN uniform   — ``random(B)``        (``< 0.9`` → campus LAN)
6.  access-class uniform — ``random(B)``        (``< 0.6`` → LAN else FTTH)
7.  FTTH uplink index    — ``integers(3, size=B)``
8.  DSL downlink index   — ``integers(5, size=B)``
9.  DSL uplink index     — ``integers(5, size=B)``
10. NAT uniform          — ``random(B)``        (``< 0.5`` for DSL)
11. OS/TTL uniform       — ``random(B)``        (``< unix_fraction`` → 64)

The *distributions* match :func:`repro.population.generator.generate_population`
exactly (same access plans, same campus/ISP placement rules, same TTL mix);
only the stream layout differs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.population.demographics import cctv1_audience
from repro.population.generator import (
    _PROBE_AS_BY_CC,
    KIND_DSL,
    KIND_FTTH,
    KIND_LAN,
    PopulationConfig,
    SwarmColumns,
)
from repro.topology.access import HIGH_BW_THRESHOLD_BPS
from repro.topology.geography import PROBE_COUNTRIES
from repro.topology.host import INITIAL_TTL_UNIX, INITIAL_TTL_WINDOWS
from repro.topology.world import World
from repro.units import MBPS

#: Peers drawn per seeded block.  Part of the population identity —
#: changing it changes the drawn columns for a given seed.
BLOCK_SIZE = 8192

#: Router hops inside the access network, mirroring
#: :data:`repro.topology.paths.ACCESS_DEPTH` (LAN=1, everything else 2).
_DEPTH_BY_KIND = np.array([1, 2, 2, 2], dtype=np.uint8)

_FTTH_UP_MBPS = np.array([20.0, 50.0, 100.0])
_DSL_DOWN_MBPS = np.array([1.0, 2.0, 4.0, 6.0, 8.0])
_DSL_UP_MBPS = np.array([0.256, 0.384, 0.512, 0.640, 1.0])


def generate_sparse_swarm(
    world: World,
    config: PopulationConfig,
    rng: np.random.Generator,
) -> SwarmColumns:
    """Draw ``config.size`` remote peers on ``world`` block by block.

    Same signature and result type as ``generate_population``; see the
    module docstring for the draw plan.
    """
    demo = config.demographics or cctv1_audience()
    # The single draw consumed from the population stream.
    root = int(rng.integers(0, 2**63))

    codes, probs = demo.normalised_weights()
    hb_frac = np.array([demo.highbw_for(c) for c in codes])
    is_probe_cc = np.array(
        [c in PROBE_COUNTRIES and c in _PROBE_AS_BY_CC for c in codes]
    )
    all_isps = [asn for cc in codes for asn in world.access_isps(cc)]
    if not all_isps:
        raise ConfigurationError("world has no consumer ISPs registered")
    # Countries with no registered ISP fall back to a random foreign ISP —
    # same mis-geolocated-straggler rule as the dense scheme.
    isp_lists = [world.access_isps(cc) or all_isps for cc in codes]
    campus_lists = [_PROBE_AS_BY_CC.get(cc, [0]) for cc in codes]
    width = max(len(l) for l in isp_lists + campus_lists)
    isp_pad = np.zeros((len(codes), width), dtype=np.int64)
    isp_cnt = np.array([len(l) for l in isp_lists], dtype=np.int64)
    campus_pad = np.zeros((len(codes), width), dtype=np.int64)
    campus_cnt = np.array([len(l) for l in campus_lists], dtype=np.int64)
    for i, (isps, campus) in enumerate(zip(isp_lists, campus_lists)):
        isp_pad[i, : len(isps)] = isps
        campus_pad[i, : len(campus)] = campus
    # ASN → AS country lookup (endpoints carry the *AS's* country).
    max_asn = max(a.asn for a in world.registry)
    cc_by_asn = np.zeros(max_asn + 1, dtype="U2")
    for asys in world.registry:
        cc_by_asn[asys.asn] = asys.country_code
    plen = world.config.subnet_prefixlen
    subnet_mask = np.uint32((0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF)

    def block(rng: np.random.Generator, n: int) -> SwarmColumns:
        # Fixed-width draw plan — see module docstring for the numbered list.
        ci = rng.choice(len(codes), size=n, p=probs)
        u_hb = rng.random(n)
        u_probe = rng.random(n)
        r_pick = rng.integers(0, 1 << 30, size=n)
        u_lan = rng.random(n)
        u_acc = rng.random(n)
        i_ftth = rng.integers(0, 3, size=n)
        i_down = rng.integers(0, 5, size=n)
        i_up = rng.integers(0, 5, size=n)
        u_nat = rng.random(n)
        u_ttl = rng.random(n)

        highbw_drawn = u_hb < hb_frac[ci]
        in_probe = is_probe_cc[ci] & (u_probe < demo.probe_as_fraction)
        asn = isp_pad[ci, r_pick % isp_cnt[ci]]
        asn_campus = campus_pad[ci, r_pick % campus_cnt[ci]]
        asn = np.where(in_probe, asn_campus, asn)

        campus_lan = in_probe & (u_lan < 0.9)
        lan_mask = campus_lan | (~campus_lan & highbw_drawn & (u_acc < 0.6))
        ftth_mask = ~campus_lan & highbw_drawn & (u_acc >= 0.6)
        dsl_mask = ~campus_lan & ~highbw_drawn

        down = np.where(dsl_mask, _DSL_DOWN_MBPS[i_down] * MBPS, 100.0 * MBPS)
        up = np.where(
            lan_mask,
            100.0 * MBPS,
            np.where(
                ftth_mask,
                _FTTH_UP_MBPS[i_ftth] * MBPS,
                _DSL_UP_MBPS[i_up] * MBPS,
            ),
        )
        kind = np.where(
            lan_mask, KIND_LAN, np.where(ftth_mask, KIND_FTTH, KIND_DSL)
        ).astype(np.int8)
        nat = ftth_mask | (dsl_mask & (u_nat < 0.5))
        ttl = np.where(
            u_ttl < config.unix_fraction, INITIAL_TTL_UNIX, INITIAL_TTL_WINDOWS
        ).astype(np.uint8)

        ip = world.bulk_remote_ips(asn)
        return SwarmColumns(
            ip=ip,
            subnet=(ip & subnet_mask).astype(np.uint32),
            asn=asn.astype(np.int32),
            cc=cc_by_asn[asn],
            kind=kind,
            down_bps=down,
            up_bps=up,
            nat=nat,
            firewalled=np.zeros(n, dtype=bool),
            highbw=up > HIGH_BW_THRESHOLD_BPS,
            initial_ttl=ttl,
            access_depth=_DEPTH_BY_KIND[kind],
        )

    # IP assignment is stateful (per-AS subnet cursors advance in block
    # order), so blocks are drawn front to back; an empty swarm is one
    # empty block.
    starts = range(0, max(config.size, 1), BLOCK_SIZE)
    seeds = np.random.SeedSequence(root).spawn(len(starts))
    parts = [
        block(np.random.default_rng(seed), min(BLOCK_SIZE, config.size - lo))
        for seed, lo in zip(seeds, starts)
    ]
    return SwarmColumns(**{
        name: np.concatenate([getattr(p, name) for p in parts])
        for name in SwarmColumns.__dataclass_fields__
    })
