"""Sparse, block-lazy swarm representation for paper-scale populations.

The measured swarms of the paper held ~1.8×10^5 peers; the object-per-peer
directory built by :mod:`repro.population.generator` tops out around 10^4
because every remote costs a ``RemotePeer`` + ``NetworkEndpoint`` +
``AccessLink`` object graph (~1 kB each).  This module holds the same
population as flat numpy columns (~40 bytes per peer) generated lazily in
seeded blocks, so a 10^5–10^6 peer swarm costs a few megabytes plus memory
proportional to what the engine actually touches.

Determinism contract
--------------------
A :class:`SparseSwarm` consumes exactly **one** draw from the population
RNG stream (a 63-bit block-seed root); every per-peer attribute then comes
from per-block child generators spawned off a ``SeedSequence`` of that
root.  Columns are therefore a pure function of ``(rng state, size,
block_size)`` — independent of materialisation order, but **not** of the
block size, which is part of the population's identity and defaults to
:data:`DEFAULT_BLOCK_SIZE`.

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

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.population.demographics import Demographics, cctv1_audience
from repro.population.generator import _PROBE_AS_BY_CC, RemotePeer
from repro.topology.access import (
    HIGH_BW_THRESHOLD_BPS,
    AccessClass,
    AccessLink,
)
from repro.topology.geography import PROBE_COUNTRIES
from repro.topology.host import (
    INITIAL_TTL_UNIX,
    INITIAL_TTL_WINDOWS,
    NetworkEndpoint,
)
from repro.topology.world import World
from repro.units import MBPS

#: Peers generated per seeded block.  Part of the population identity —
#: changing it changes the drawn columns for a given seed.
DEFAULT_BLOCK_SIZE = 8192

#: ``SwarmColumns.kind`` codes, aligned with :class:`AccessClass` order.
KIND_LAN, KIND_DSL, KIND_CATV, KIND_FTTH = 0, 1, 2, 3

_KIND_TO_CLASS = {
    KIND_LAN: AccessClass.LAN,
    KIND_DSL: AccessClass.DSL,
    KIND_CATV: AccessClass.CATV,
    KIND_FTTH: AccessClass.FTTH,
}

#: Router hops inside the access network, mirroring
#: :data:`repro.topology.paths.ACCESS_DEPTH` (LAN=1, everything else 2).
_DEPTH_BY_KIND = np.array([1, 2, 2, 2], dtype=np.uint8)

_FTTH_UP_MBPS = np.array([20.0, 50.0, 100.0])
_DSL_DOWN_MBPS = np.array([1.0, 2.0, 4.0, 6.0, 8.0])
_DSL_UP_MBPS = np.array([0.256, 0.384, 0.512, 0.640, 1.0])


@dataclass(frozen=True, slots=True)
class SwarmColumns:
    """A (slice of a) remote population as aligned numpy columns."""

    ip: np.ndarray            # uint32
    subnet: np.ndarray        # uint32 (masked network address)
    asn: np.ndarray           # int32
    cc: np.ndarray            # 'U2' (the *AS's* country, like NetworkEndpoint)
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


def _concat(parts: list[SwarmColumns]) -> SwarmColumns:
    if len(parts) == 1:
        return parts[0]
    return SwarmColumns(**{
        name: np.concatenate([getattr(p, name) for p in parts])
        for name in SwarmColumns.__dataclass_fields__
    })


@dataclass(frozen=True, slots=True)
class SparseSwarmConfig:
    """Shape of a sparse population.

    Mirrors :class:`repro.population.generator.PopulationConfig` plus the
    block size of the lazy generator.
    """

    size: int
    demographics: Demographics | None = None
    unix_fraction: float = 0.04
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ConfigurationError(f"population size must be >= 0, got {self.size}")
        if not 0 <= self.unix_fraction <= 1:
            raise ConfigurationError("unix_fraction must be in [0, 1]")
        if self.block_size < 1:
            raise ConfigurationError("block_size must be >= 1")


class SparseSwarm:
    """A lazily-materialised remote population held as numpy columns.

    Blocks materialise in index order on first touch (IP assignment is
    stateful — per-AS subnet cursors advance in block order), so touching
    block *b* materialises every block up to *b*.  :meth:`columns` returns
    the full concatenated view, cached; :meth:`peers` is the thin
    object-API view for small-N consumers and differential tests.
    """

    def __init__(
        self,
        world: World,
        config: SparseSwarmConfig,
        rng: np.random.Generator,
    ) -> None:
        self.world = world
        self.config = config
        demo = config.demographics or cctv1_audience()
        self.demographics = demo
        # The single draw consumed from the population stream.
        self._root = int(rng.integers(0, 2**63))
        self.n_blocks = -(-config.size // config.block_size) if config.size else 0
        self._seeds = (
            np.random.SeedSequence(self._root).spawn(self.n_blocks)
            if self.n_blocks
            else []
        )
        self._blocks: list[SwarmColumns] = []
        self._columns: SwarmColumns | None = None
        self._build_tables(world, demo)

    # ------------------------------------------------------------- tables
    def _build_tables(self, world: World, demo: Demographics) -> None:
        codes, probs = demo.normalised_weights()
        self._codes = codes
        self._probs = probs
        self._hb_frac = np.array([demo.highbw_for(c) for c in codes])
        self._is_probe_cc = np.array(
            [c in PROBE_COUNTRIES and c in _PROBE_AS_BY_CC for c in codes]
        )
        all_isps = [asn for cc in codes for asn in world.access_isps(cc)]
        if not all_isps:
            raise ConfigurationError("world has no consumer ISPs registered")
        isp_lists = []
        campus_lists = []
        for cc in codes:
            isps = world.access_isps(cc)
            # Countries with no registered ISP fall back to a random foreign
            # ISP — same mis-geolocated-straggler rule as the dense path.
            isp_lists.append(isps if isps else all_isps)
            campus_lists.append(_PROBE_AS_BY_CC.get(cc, [0]))
        width = max(len(l) for l in isp_lists + campus_lists)
        self._isp_pad = np.zeros((len(codes), width), dtype=np.int64)
        self._isp_cnt = np.empty(len(codes), dtype=np.int64)
        self._campus_pad = np.zeros((len(codes), width), dtype=np.int64)
        self._campus_cnt = np.empty(len(codes), dtype=np.int64)
        for i, (isps, campus) in enumerate(zip(isp_lists, campus_lists)):
            self._isp_pad[i, : len(isps)] = isps
            self._isp_cnt[i] = len(isps)
            self._campus_pad[i, : len(campus)] = campus
            self._campus_cnt[i] = len(campus)
        # ASN → AS country lookup (endpoints carry the *AS's* country).
        max_asn = max(a.asn for a in world.registry)
        self._cc_by_asn = np.zeros(max_asn + 1, dtype="U2")
        for asys in world.registry:
            self._cc_by_asn[asys.asn] = asys.country_code
        plen = world.config.subnet_prefixlen
        self._subnet_mask = np.uint32((0xFFFFFFFF << (32 - plen)) & 0xFFFFFFFF)

    # ------------------------------------------------------------- blocks
    def __len__(self) -> int:
        return self.config.size

    @property
    def materialised_blocks(self) -> int:
        return len(self._blocks)

    def _block_bounds(self, b: int) -> tuple[int, int]:
        lo = b * self.config.block_size
        return lo, min(lo + self.config.block_size, self.config.size)

    def block(self, b: int) -> SwarmColumns:
        """Columns for block ``b``, materialising earlier blocks if needed."""
        if not 0 <= b < self.n_blocks:
            raise ConfigurationError(f"block {b} outside [0, {self.n_blocks})")
        while len(self._blocks) <= b:
            self._blocks.append(self._generate_block(len(self._blocks)))
        return self._blocks[b]

    def columns(self) -> SwarmColumns:
        """The full population as one set of columns (cached)."""
        if self._columns is None:
            if self.n_blocks == 0:
                z = np.zeros(0)
                self._columns = SwarmColumns(
                    ip=z.astype(np.uint32), subnet=z.astype(np.uint32),
                    asn=z.astype(np.int32), cc=z.astype("U2"),
                    kind=z.astype(np.int8), down_bps=z, up_bps=z.copy(),
                    nat=z.astype(bool), firewalled=z.astype(bool),
                    highbw=z.astype(bool), initial_ttl=z.astype(np.uint8),
                    access_depth=z.astype(np.uint8),
                )
            else:
                self._columns = _concat(
                    [self.block(b) for b in range(self.n_blocks)]
                )
        return self._columns

    def _generate_block(self, b: int) -> SwarmColumns:
        lo, hi = self._block_bounds(b)
        n = hi - lo
        rng = np.random.default_rng(self._seeds[b])
        # Fixed-width draw plan — see module docstring for the numbered list.
        ci = rng.choice(len(self._codes), size=n, p=self._probs)
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

        highbw_drawn = u_hb < self._hb_frac[ci]
        in_probe = self._is_probe_cc[ci] & (
            u_probe < self.demographics.probe_as_fraction
        )
        asn = self._isp_pad[ci, r_pick % self._isp_cnt[ci]]
        asn_campus = self._campus_pad[ci, r_pick % self._campus_cnt[ci]]
        asn = np.where(in_probe, asn_campus, asn)

        campus_lan = in_probe & (u_lan < 0.9)
        lan_mask = campus_lan | (~campus_lan & highbw_drawn & (u_acc < 0.6))
        ftth_mask = ~campus_lan & highbw_drawn & (u_acc >= 0.6)
        dsl_mask = ~campus_lan & ~highbw_drawn

        down = np.where(
            dsl_mask, _DSL_DOWN_MBPS[i_down] * MBPS, 100.0 * MBPS
        )
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
            u_ttl < self.config.unix_fraction,
            INITIAL_TTL_UNIX,
            INITIAL_TTL_WINDOWS,
        ).astype(np.uint8)

        ip = self.world.bulk_remote_ips(asn)
        return SwarmColumns(
            ip=ip,
            subnet=(ip & self._subnet_mask).astype(np.uint32),
            asn=asn.astype(np.int32),
            cc=self._cc_by_asn[asn],
            kind=kind,
            down_bps=down,
            up_bps=up,
            nat=nat,
            firewalled=np.zeros(n, dtype=bool),
            highbw=up > HIGH_BW_THRESHOLD_BPS,
            initial_ttl=ttl,
            access_depth=_DEPTH_BY_KIND[kind],
        )

    # --------------------------------------------------------- object view
    def peers(self) -> list[RemotePeer]:
        """The population as ``RemotePeer`` objects (thin view, small N).

        Access links are pooled: identical plans share one frozen
        ``AccessLink`` instance, so the view costs one small object per
        peer, not three.
        """
        cols = self.columns()
        plen = self.world.config.subnet_prefixlen
        pool: dict[tuple, AccessLink] = {}
        peers: list[RemotePeer] = []
        for i in range(len(cols)):
            key = (
                int(cols.kind[i]), float(cols.down_bps[i]),
                float(cols.up_bps[i]), bool(cols.nat[i]),
            )
            access = pool.get(key)
            if access is None:
                access = AccessLink(
                    kind=_KIND_TO_CLASS[key[0]],
                    down_bps=key[1],
                    up_bps=key[2],
                    nat=key[3],
                )
                pool[key] = access
            endpoint = NetworkEndpoint(
                ip=int(cols.ip[i]),
                asn=int(cols.asn[i]),
                country_code=str(cols.cc[i]),
                access=access,
                subnet_prefixlen=plen,
                initial_ttl=int(cols.initial_ttl[i]),
            )
            peers.append(RemotePeer(peer_id=i, endpoint=endpoint))
        return peers


def generate_sparse_swarm(
    world: World,
    config: SparseSwarmConfig,
    rng: np.random.Generator,
) -> SparseSwarm:
    """Build a :class:`SparseSwarm`; mirrors ``generate_population``'s API."""
    return SparseSwarm(world, config, rng)
