"""The discrete-event P2P-TV engine.

Architecture (see DESIGN.md §3): the engine is *probe-centric*.  The 46
NAPA-WINE probes run the full mesh-pull protocol — discovery, partner
management, buffer maps, per-chunk provider selection, upload queuing —
because the paper's dataset is exactly the traffic those probes saw.  The
remote swarm is modelled statistically: each remote peer has a position in
the chunk-diffusion process (:class:`RemoteAvailability`), responds to
probe requests through a real uplink queue, and generates its own pull
demand towards the probes it finds attractive (the upload direction).

Everything stochastic draws from named, seeded RNG streams
(:class:`~repro.config.RngBundle`), so a run is a pure function of
``(world seed, profile, engine seed)``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.config import RngBundle
from repro.errors import ConfigurationError, SimulationError
from repro.obs.log import get_logger
from repro.population.churn import ChurnProcess, draw_session_bounds
from repro.population.demographics import (
    Demographics,
    cctv1_audience,
    crossswarm_audience,
)
from repro.population.generator import PopulationConfig, SwarmColumns, generate_population
from repro.population.sparse import generate_sparse_swarm
from repro.streaming.availability import RemoteAvailability
from repro.streaming.buffer import SoAState, window_chunks
from repro.streaming.events import EventQueue
from repro.streaming.profiles import AppProfile
from repro.streaming.schedulers import get_scheduler
from repro.streaming.selection import (
    CODE_AS,
    CODE_CC,
    CODE_NEAR,
    CODE_NET,
    N_CODES,
    SelectionPolicy,
)
from repro.streaming.transport import (
    SignalingBook,
    TransferRecorder,
    UplinkScheduler,
)
from repro.topology.paths import ACCESS_DEPTH
from repro.topology.testbed import Testbed, build_napa_wine_testbed
from repro.topology.world import World
from repro.trace.hosts import HostTable
from repro.trace.records import PacketKind
from repro.units import BITS_PER_BYTE

_log = get_logger("streaming.engine")

#: Size of a chunk-request / poll datagram.
REQUEST_BYTES = 80

#: Packet-kind codes pre-cast to int for the inlined hot-path recording
#: (``int(PacketKind.X)`` per logged packet is measurable at trace scale).
_KIND_CONTROL = int(PacketKind.CONTROL)
_KIND_VIDEO = int(PacketKind.VIDEO)

#: Demand multiplier for probes below the high-bandwidth threshold (remotes
#: rarely pick them as parents — their uplink cannot sustain the stream).
LOWBW_DEMAND_FACTOR = 0.15

#: Probability that a discovery contact towards a firewalled peer fails.
FIREWALL_DROP_PROB = 0.8

#: Bounds on the pure per-probe memoisations (docs/engine-internals.md,
#: "cache audit"): evicted entries are recomputed bit-identically on the
#: next miss, so the bounds affect memory only, never the trace.
_PARTNER_CTX_MAX = 8

#: Oversampling rounds allowed per alias-sampled tracker reply before the
#: reply is returned short (candidates are rejected when offline, already
#: known, self, or duplicate within the reply).
_ALIAS_MAX_ROUNDS = 8

def _approx_latency(same_subnet: bool, same_as: bool, same_cc: bool) -> float:
    """One-way latency estimate used for protocol timing.

    Coarse on purpose: serialisation dominates transfer time, and the
    analysis consumes byte counts and packet dispersion, not latencies.
    """
    if same_subnet:
        return 0.001
    if same_as:
        return 0.005
    if same_cc:
        return 0.02
    return 0.08


#: One-way latency by awareness code (:func:`_approx_latency` of its
#: NET, AS and CC bits).
LATENCY_BY_CODE: tuple[float, ...] = tuple(
    _approx_latency(bool(c & CODE_NET), bool(c & CODE_AS), bool(c & CODE_CC))
    for c in range(N_CODES)
)


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Run-level engine parameters (profile-independent)."""

    duration_s: float = 600.0
    seed: int = 7
    demand_rebalance_s: float = 20.0
    max_backlog_s: float = 4.0
    #: Hop threshold for the ``near`` selection feature (only consulted when
    #: a profile sets a nonzero hop weight).
    hop_near_threshold: int = 19
    #: Per-tick budget of candidate-less chunks examined before giving up.
    max_probe_attempts: int = 24
    #: Probability that a chunk request fails because the provider's
    #: advertised buffer map was stale.  Failed chunks age and get retried,
    #: which is how slower peers (whose chunks arrive late) ever get picked.
    stale_buffermap_prob: float = 0.2
    #: Outstanding chunk requests allowed per provider.  Pipelining caps
    #: force request spreading: when the preferred providers are busy the
    #: scheduler falls back to less-preferred (often slower) partners —
    #: the mechanism that keeps low-bandwidth peers in the contributor set
    #: while they receive few bytes.
    max_outstanding_per_provider: int = 2
    #: Probability that a chunk request datagram is lost in the network
    #: (the request is recorded — the capture saw it leave — but no
    #: response ever comes; the chunk is retried at a later tick).
    #: Default 0: loss is an opt-in robustness knob.
    request_loss_prob: float = 0.0
    #: Probability that a *firewalled* probe drops an unsolicited remote
    #: downloader attachment (Table I's FW column given teeth).
    firewall_attach_drop_prob: float = 0.8
    #: Optional time-varying request loss: any object with a
    #: ``prob_at(t) -> float`` method (see
    #: :class:`repro.faults.loss.LossSchedule`).  When set it *replaces*
    #: ``request_loss_prob`` — impairment plans fold the scalar in as the
    #: schedule's GOOD-state floor.
    request_loss_schedule: object | None = None
    #: Optional churn post-transform ``(ChurnProcess, rng) -> ChurnProcess``
    #: applied to the generated remote-peer sessions, drawing from the
    #: engine's ``fault_churn`` RNG stream (churn storms / flash crowds —
    #: see :mod:`repro.faults.churn`).
    churn_transform: object | None = None

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ConfigurationError("duration must be positive")
        if self.demand_rebalance_s <= 0:
            raise ConfigurationError("rebalance interval must be positive")


class ProbeState:
    """Discovery / partner-management state of one probe.

    ``pi`` is the probe index (``gidx - n_remote``) — the probe's row in
    the shared :class:`~repro.streaming.buffer.SoAState` bitmaps.

    ``code`` is the probe's awareness code of every directory peer, one
    byte each (bits :data:`~repro.streaming.selection.CODE_BW` …
    ``CODE_NEAR``): every score and latency the probe reads is a table
    lookup on it — ``table[codes[cands]]`` for arrays, ``code[g]`` for
    one peer.

    ``known`` and ``partners`` stay Python sets — set iteration order is
    part of the deterministic trace (it decides candidate ordering and the
    per-partner RNG draw sequence) — but the hot path reads them through
    cached ``np.fromiter`` materialisations refreshed only at mutation
    points.  Since an unmutated set iterates in a stable order, the cached
    arrays are element-for-element identical to per-event rebuilds.
    """

    __slots__ = (
        "gidx",
        "pi",
        "known",
        "known_mask",
        "partners",
        "partners_arr",
        "code",
        "codes",
        "busy",
        "busy_over",
        "_known_arr",
        "_known_len",
        "_filt",
        "_filt_key",
        "_filt_src",
    )

    def __init__(self, gidx: int, pi: int, n_peers: int) -> None:
        self.gidx = gidx
        self.pi = pi
        self.known: set[int] = set()
        #: Dense mirror of ``known`` (discovery filters against it without
        #: the O(pool × known) set-probing of np.isin).
        self.known_mask: np.ndarray = np.zeros(n_peers, dtype=bool)
        self.partners: set[int] = set()
        self.partners_arr: np.ndarray = np.zeros(0, dtype=np.int64)
        #: Awareness-code row (built when the run starts the probe) and
        #: its uint8 array view for gathers.
        self.code: bytes = b""
        self.codes: np.ndarray = np.zeros(0, dtype=np.uint8)
        #: Outstanding chunk requests per provider gidx (pipelining cap),
        #: held only for the providers this probe has requested from.
        self.busy: Counter[int] = Counter()
        #: Providers currently at/over the pipelining cap — the tiny
        #: (usually empty) complement the schedulers subtract instead of
        #: re-checking ``busy`` per advertised pair.
        self.busy_over: set[int] = set()
        self._known_arr: np.ndarray = np.zeros(0, dtype=np.int64)
        self._known_len = 0
        # Online-filtered partners_arr, valid for one (mask epoch, partner
        # array) combination — see Engine._on_tick.
        self._filt: np.ndarray = self.partners_arr
        self._filt_key = -1
        self._filt_src: np.ndarray | None = None

    def add_known(self, g: int) -> None:
        """Record peer ``g`` as discovered."""
        self.known.add(g)
        self.known_mask[g] = True

    def known_array(self) -> np.ndarray:
        """``known`` as an int64 array (cached; ``known`` is grow-only)."""
        if self._known_len != len(self.known):
            self._known_arr = np.fromiter(self.known, dtype=np.int64, count=len(self.known))
            self._known_len = len(self.known)
        return self._known_arr

    def set_partners(self, partners: set[int]) -> None:
        """Replace the partner set and refresh its array materialisation."""
        self.partners = partners
        self.partners_arr = np.fromiter(partners, dtype=np.int64, count=len(partners))

    def online_partners(self, online: np.ndarray, mask_key: int) -> np.ndarray:
        """``partners_arr`` filtered to online peers, memoised per epoch."""
        if self._filt_key != mask_key or self._filt_src is not self.partners_arr:
            arr = self.partners_arr
            self._filt = arr[online[arr]]
            self._filt_key = mask_key
            self._filt_src = arr
        return self._filt


@dataclass
class SimulationResult:
    """Everything a run produces.

    ``transfers`` and ``signaling`` are the raw log; ``hosts`` is the
    ground-truth host table; downstream code turns these into probe-side
    flow tables and packet traces.
    """

    transfers: np.ndarray
    signaling: np.ndarray
    hosts: HostTable
    testbed: Testbed
    world: World
    profile: AppProfile
    config: EngineConfig
    events_processed: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def probe_ips(self) -> np.ndarray:
        return self.hosts.probe_ips

    @property
    def duration_s(self) -> float:
        return self.config.duration_s


class _BiasedSampler:
    """Exact O(1)-per-draw sampler for the two-valued discovery weights.

    The AS-biased discovery distribution ``w_i = 1 + bias·[asn_i = a]``
    is a mixture: uniform over all ``n`` peers with probability
    ``n / (n + bias·k)``, uniform over the ``k`` same-AS peers otherwise
    — algebraically identical to the alias table over those weights, but
    built from one ``flatnonzero`` instead of an O(n) Vose construction
    per chooser AS.

    Draw order (fixed, documented for determinism): the global index
    draw ``j = integers(n, size)`` first, then the mixture coin
    ``u = random(size)``, then the same-AS index draw
    ``integers(k, size)``; the last two are skipped when the bias is
    inactive (``bias·k = 0``), matching the unbiased uniform sampler.
    """

    __slots__ = ("n", "same", "q")

    def __init__(self, n: int, same: np.ndarray, bias: float) -> None:
        self.n = n
        self.same = same
        k = len(same)
        self.q = bias * k / (n + bias * k) if n else 0.0

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        j = rng.integers(0, self.n, size=size)
        if self.q <= 0.0:
            return j
        u = rng.random(size)
        boost = self.same[rng.integers(0, len(self.same), size=size)]
        return np.where(u < self.q, boost, j)


class Engine:
    """One experiment: one application profile on one synthetic Internet.

    The remote swarm arrives as :class:`~repro.population.generator.
    SwarmColumns`, whichever scheme drew it.  Per-probe buffer state lives
    in shared bitmaps (:class:`~repro.streaming.buffer.SoAState`).  The
    tick driver decides how the schedulers' availability questions are
    answered: a cohort tick (``profile.tick_cohort``) builds one array
    block for every probe and each probe gathers its rows from it; a
    per-probe tick asks a short scalar scan.
    """

    def __init__(
        self,
        world: World,
        testbed: Testbed,
        profile: AppProfile,
        population: SwarmColumns,
        config: EngineConfig,
    ) -> None:
        self.world = world
        self.testbed = testbed
        self.profile = profile
        self.config = config
        self.clock = profile.video.clock
        self._rngs = RngBundle(config.seed)
        #: The protocol-event stream, bound once (hot-path draws).
        self._rng_engine = self._rngs["engine"]
        self._queue = EventQueue()
        # Pre-bound hot-path callbacks: scheduling via ``self._on_x``
        # creates a fresh bound method per call; these do it once.
        self._cb_tick = self._on_tick
        self._cb_tick_cohort = self._on_tick_cohort
        self._cb_arrival = self._on_chunk_arrival
        self._cb_pull = self._on_remote_pull
        self._recorder = TransferRecorder()
        self._rec_append = self._recorder.append_row
        self._signaling = SignalingBook()

        self._build_directory(population)
        self._build_protocol_state()
        #: Discovery sampler selection (profile knob, independent of the
        #: scheme that drew the swarm).
        self._alias_tables: dict[int, _BiasedSampler] = {}
        if profile.discovery == "alias":
            self._tracker_sample = self._tracker_sample_alias  # type: ignore[method-assign]
        # The chunk-scheduling policy: which missing chunks to request, in
        # what order, from whom (see repro.streaming.schedulers).  The
        # default mesh-pull strategy is the pre-refactor selection loop
        # verbatim — golden-hash-pinned byte-identical.
        self._scheduler = get_scheduler(profile.scheduler)()
        self._scheduler.bind(self)
        self._sched_requests = self._scheduler.schedule_requests
        self._scan_limit = (
            self.config.max_probe_attempts if self._scheduler.truncate_scan else None
        )
        self._sched_push = self._scheduler.pushes
        #: Cohort-tick availability state: ``_cohort_serial`` bumps once
        #: per cohort build, ``_cohort_t``/``_cohort_floor`` stamp the
        #: tick it covers.  A ctx whose ``cohort_serial`` matches holds a
        #: prebuilt full-range availability block for this very tick, so
        #: the per-probe availability question reduces to one row gather.
        self._cohort_serial = 0
        self._cohort_t = -1.0
        self._cohort_floor = 0
        #: Stacked remote scalars for the cohort build, memoised by the
        #: participating ctxs' creation uids (collision-free, unlike
        #: ``id()`` which the allocator recycles).
        self._cohort_scalars_key: tuple = ()
        self._cohort_delays: np.ndarray | None = None
        self._cohort_ready: np.ndarray | None = None
        self._ctx_uid = 0

    # ----------------------------------------------------------- directory
    def _build_directory(self, cols: SwarmColumns) -> None:
        """Append the probes to the remote columns as aligned attribute arrays.

        Global index space: remotes occupy ``[0, R)``, probes ``[R, R+P)``.
        """
        probes = [h.endpoint for h in self.testbed.hosts]
        self.n_probe = len(probes)
        if self.n_probe == 0:
            raise SimulationError("testbed has no probes")
        self.n_remote = len(cols)
        n = self.n_remote + self.n_probe

        def column(remote: np.ndarray, values: list, dtype) -> np.ndarray:
            return np.concatenate([remote, np.array(values, dtype=dtype)])

        self._ip = column(cols.ip, [e.ip for e in probes], np.uint32)
        self._asn = column(cols.asn, [e.asn for e in probes], np.int32)
        cc_codes = sorted(set(cols.cc.tolist()) | {e.country_code for e in probes})
        self._cc_labels = cc_codes
        cc_index = {c: i for i, c in enumerate(cc_codes)}
        self._cc = column(
            np.searchsorted(np.array(cc_codes, dtype="U2"), cols.cc).astype(np.int16),
            [cc_index[e.country_code] for e in probes],
            np.int16,
        )
        self._subnet = column(cols.subnet, [e.subnet for e in probes], np.uint32)
        self._up = column(cols.up_bps, [e.access.up_bps for e in probes], np.float64)
        self._down = column(cols.down_bps, [e.access.down_bps for e in probes], np.float64)
        self._highbw = column(
            cols.highbw, [e.access.is_high_bandwidth for e in probes], bool
        )
        self._firewalled = column(cols.firewalled, [e.access.firewall for e in probes], bool)
        self._initial_ttl = column(
            cols.initial_ttl, [e.initial_ttl for e in probes], np.uint8
        )
        self._access_depth = column(
            cols.access_depth, [ACCESS_DEPTH[e.access.kind] for e in probes], np.uint8
        )
        self._is_probe = np.zeros(n, dtype=bool)
        self._is_probe[self.n_remote :] = True

        # Sessions: remotes churn, probes stay for the whole experiment.
        self._join = np.full(n, 0.0)
        self._leave = np.full(n, self.config.duration_s)
        if self.config.churn_transform is not None:
            # Fault transforms operate on Session objects; this path stays
            # object-based (impairment studies run at dense scales).
            churn = ChurnProcess.generate(
                list(range(self.n_remote)),
                self.config.duration_s,
                self.profile.churn,
                self._rngs["churn"],
            )
            churn = self.config.churn_transform(churn, self._rngs["fault_churn"])
            for s in churn.sessions:
                self._join[s.peer_id] = s.join
                self._leave[s.peer_id] = s.leave
        else:
            # Columnar draw — same RNG consumption and IEEE values as the
            # Session-object path (ChurnProcess.generate wraps this same
            # function), without 10^5 Session objects at paper scale.
            joins, leaves = draw_session_bounds(
                self.n_remote,
                self.config.duration_s,
                self.profile.churn,
                self._rngs["churn"],
            )
            self._join[: self.n_remote] = joins
            self._leave[: self.n_remote] = leaves

        self.availability = RemoteAvailability(
            self.clock,
            self._highbw[: self.n_remote],
            self._join[: self.n_remote],
            self.profile.availability,
            self._rngs["availability"],
        )
        self.uplink = UplinkScheduler(n, self._up, self.config.max_backlog_s)
        # Borrowed references for the inlined admit() in the request/pull
        # hot paths (same lists the scheduler mutates, never reassigned).
        self._ul_free = self.uplink.free_at
        self._ul_bps = self.uplink.up_bps
        self._ul_max_backlog = self.uplink.max_backlog_s

        # Plain-list mirrors for scalar hot-path reads (numpy int indexing
        # boxes a fresh scalar per access; these are the same values).
        self._ip_list: list[int] = self._ip.tolist()
        self._up_list: list[float] = self._up.tolist()
        self._down_list: list[float] = self._down.tolist()
        self._leave_list: list[float] = self._leave.tolist()
        # Online-mask maintenance: the mask is constant between
        # consecutive join/leave boundaries and event time is
        # non-decreasing, so instead of re-evaluating the n-peer compare
        # at every boundary crossing (O(n) per interval — paper-scale
        # swarms cross a boundary every few events) the boundaries are
        # sorted once and each query flips only the peers whose join or
        # leave was crossed since the previous one: O(Δ) amortised.
        # ``_mask_key`` is the number of crossed boundaries — it changes
        # exactly when the mask content does, which is all the per-probe
        # ``online_partners`` memo needs.
        self._join_order = np.argsort(self._join, kind="stable")
        self._leave_order = np.argsort(self._leave, kind="stable")
        self._join_sorted = self._join[self._join_order]
        self._leave_sorted = self._leave[self._leave_order]
        self._join_ptr = 0
        self._leave_ptr = 0
        self._mask_key = 0
        # Next boundary at/after the cached state; recompute when t
        # reaches it.
        self._mask_t1 = -np.inf
        self._mask: np.ndarray = np.zeros(n, dtype=bool)

    def _make_probes(self, n_peers: int) -> list[ProbeState]:
        """Allocate the shared buffer bitmaps and one state per probe."""
        interval = self.clock.chunk_interval
        window = window_chunks(self.profile.video.buffer_window_s, interval)
        # Margin below the eviction frontier kept addressable in-row: the
        # longest a request can stay in flight (uplink backlog + slowest
        # serialisation + latency slack), in chunks.  Purely a performance
        # knob — bits that do slide off are rescued into the low sets.
        slowest = self.clock.chunk_bytes * BITS_PER_BYTE / float(self._up.min())
        margin = int((self.config.max_backlog_s + slowest + 0.2) / interval) + 4
        if margin > 4096:
            margin = 4096
        self._soa = SoAState(self.n_probe, window, interval, margin)
        #: Per-probe partner-context memos, keyed by the online partner
        #: array's bytes (bounded; entries rebuild bit-identically on miss).
        self._contexts: list[dict[bytes, dict]] = [{} for _ in range(self.n_probe)]
        #: Per-probe (partner array, ctx) of the last lookup: the online
        #: partner array is the same object while the online mask and the
        #: partner set are unchanged, so most lookups are a pointer compare.
        self._last_ctx: list = [None] * self.n_probe
        return [
            ProbeState(self.n_remote + k, k, n_peers) for k in range(self.n_probe)
        ]

    def _build_protocol_state(self) -> None:
        n = self.n_remote + self.n_probe
        self._probes = self._make_probes(n)
        rng_sel = self._rngs["selection"]
        self._partner_policy = SelectionPolicy(
            self.profile.partner_weights, rng_sel, self.profile.selection_temperature
        )
        self._provider_policy = SelectionPolicy(
            self.profile.provider_weights, rng_sel, self.profile.selection_temperature
        )
        self._remote_policy = SelectionPolicy(
            self.profile.remote_weights, rng_sel, self.profile.selection_temperature
        )
        #: (remote gidx, probe gidx) pairs currently attached as downloaders.
        self._attached: set[tuple[int, int]] = set()

        # Whether any policy consults the hop feature — static per profile.
        self._need_hop = any(
            policy.weights.hop
            for policy in (self._partner_policy, self._provider_policy, self._remote_policy)
        )
        # Awareness scores are a pure function of the (chooser, candidate)
        # pair's awareness code, so each policy scores the 32 codes once
        # and every candidate batch is a gather from that table — the very
        # doubles scoring the batch's features would give, so the softmax
        # probabilities and RNG draws are unchanged.
        self._partner_table = self._partner_policy.score_table()
        self._provider_table = self._provider_policy.score_table()
        self._remote_table = self._remote_policy.score_table()
        self._lat_of = LATENCY_BY_CODE
        #: Transit-matrix index of every directory peer's AS (near bit
        #: only; resolved by the first code-row build).
        self._transit_index: np.ndarray | None = None
        # Tick-loop constants hoisted out of their dataclasses: _on_tick
        # fires tens of thousands of times and these attribute chains are
        # measurable there.
        self._tick_interval = self.profile.tick_interval_s
        self._live_lag = max(0, self.profile.live_lag_chunks)
        self._max_parallel = self.profile.max_parallel_requests
        self._explore_prob = self.profile.explore_prob
        self._max_attempts = self.config.max_probe_attempts
        self._cap_out = self.config.max_outstanding_per_provider
        self._chunk_bytes = self.clock.chunk_bytes
        self._loss_schedule = self.config.request_loss_schedule
        self._loss_prob = self.config.request_loss_prob
        self._stale_prob = self.config.stale_buffermap_prob
        self._av_chunk_interval = self.availability.chunk_interval
        self._av_retention = self.availability.retention_s
        #: The selection policies all draw from this stream; hoisted so the
        #: tick loop can invert cached CDFs with a direct draw (same
        #: generator, same single-uniform consumption as sample_index).
        self._rng_sel = rng_sel

    def _build_code_row(self, probe: ProbeState) -> None:
        """Pack ``probe``'s awareness code of every directory peer.

        Each input is a static endpoint column, so the row is built once,
        when :meth:`run` starts the probe.  The near bit is
        ``hops < hop_near_threshold`` (as :meth:`PathModel.hops_many
        <repro.topology.paths.PathModel.hops_many>` counts hops), set only
        when some policy weighs it.
        """
        g = probe.gidx
        bits = [
            (CODE_AS, self._asn == self._asn[g]),
            (CODE_CC, self._cc == self._cc[g]),
            (CODE_NET, self._subnet == self._subnet[g]),
        ]
        if self._need_hop:
            paths = self.world.paths
            if self._transit_index is None:
                self._transit_index = paths.transit_index(self._asn)
            near = paths.closer_than(
                self.config.hop_near_threshold,
                g,
                self._ip,
                self._subnet,
                self._access_depth,
                self._transit_index,
            )
            bits.append((CODE_NEAR, near))
        codes = self._highbw.astype(np.uint8)  # CODE_BW
        scratch = np.empty_like(codes)
        for flag, mask in bits:
            # Branch-free: a masked ufunc (``where=mask``) is several
            # times slower on dense masks such as the near bit.
            codes |= np.multiply(mask.view(np.uint8), flag, out=scratch)
        probe.code = codes.tobytes()
        probe.codes = np.frombuffer(probe.code, dtype=np.uint8)

    def _partner_scores_for(self, probe: ProbeState, cands: np.ndarray) -> np.ndarray:
        """Partner-policy scores of ``cands`` from ``probe``'s viewpoint."""
        return self._partner_table[probe.codes[cands]]

    def _online_mask(self, t: float) -> np.ndarray:
        """Who is online at ``t`` (shared cache — callers must not mutate).

        The mask only changes when ``t`` crosses a join/leave boundary;
        queries arrive in non-decreasing time order, so the cached mask
        is advanced by flipping exactly the peers whose boundary was
        crossed since the previous query — bit-for-bit the array
        ``(join <= t) & (t < leave)`` would produce, at O(Δ) cost.
        """
        if t >= self._mask_t1:
            js = self._join_sorted
            ls = self._leave_sorted
            mask = self._mask
            jp = self._join_ptr
            lp = self._leave_ptr
            njp = int(js.searchsorted(t, side="right"))
            nlp = int(ls.searchsorted(t, side="right"))
            if njp > jp:
                mask[self._join_order[jp:njp]] = True
                self._join_ptr = njp
            if nlp > lp:
                # Leaves flip after joins: a peer whose whole session is
                # already behind ``t`` must end up offline.
                mask[self._leave_order[lp:nlp]] = False
                self._leave_ptr = nlp
            self._mask_key = njp + nlp
            nj = js[njp] if njp < len(js) else np.inf
            nl = ls[nlp] if nlp < len(ls) else np.inf
            self._mask_t1 = nj if nj < nl else nl
        return self._mask

    # ------------------------------------------------------------- recording
    def _record(self, t: float, src: int, dst: int, nbytes: int, kind: PacketKind) -> None:
        up = self._up_list[src]
        dn = self._down_list[dst]
        self._rec_append(
            (
                t,
                self._ip_list[src],
                self._ip_list[dst],
                nbytes,
                int(kind),
                up if up < dn else dn,  # bottleneck_bps, inlined
            )
        )

    # ------------------------------------------------------------- discovery
    def _tracker_sample(self, probe: ProbeState, k: int, t: float) -> np.ndarray:
        """Sample up to ``k`` new online peers for ``probe``.

        TVAnts-style AS-biased discovery oversamples same-AS peers by
        ``discovery_as_bias``; firewalled candidates often drop the contact.
        """
        # online ∧ ¬known ∧ ¬self, via dense masks: same ascending-index
        # pool (flatnonzero order) the isin-filtered version produced, but
        # without np.isin's per-call sort of the known set.
        avail = self._online_mask(t) & ~probe.known_mask
        avail[probe.gidx] = False  # avail is a fresh array; the shared mask is untouched
        pool = np.flatnonzero(avail)
        if len(pool) == 0:
            return pool
        rng = self._rng_engine
        bias = self.profile.discovery_as_bias
        if bias > 0:
            weights = 1.0 + bias * (self._asn[pool] == self._asn[probe.gidx])
            probs = weights / weights.sum()
        else:
            probs = None
        k = min(k, len(pool))
        picked = rng.choice(pool, size=k, replace=False, p=probs)
        # Firewalled peers drop most unsolicited contacts.
        keep = ~self._firewalled[picked] | (rng.random(len(picked)) >= FIREWALL_DROP_PROB)
        return picked[keep]

    def _alias_table_for(self, asn: int) -> "_BiasedSampler":
        """The discovery sampler seen by a probe in AS ``asn``.

        The scan sampler's weights (1 + bias for same-AS candidates) are
        two-valued, so the alias table over them collapses to an exact
        two-component mixture — uniform over the directory, plus a
        same-AS boost drawn with probability ``bias·k / (n + bias·k)``
        (see :class:`_BiasedSampler`).  Samplers are static per chooser
        AS and built lazily in O(same-AS peers), not O(swarm); probes
        share one per campus/home AS.
        """
        table = self._alias_tables.get(asn)
        if table is None:
            same = np.flatnonzero(self._asn == asn)
            n = self.n_remote + self.n_probe
            table = _BiasedSampler(n, same, self.profile.discovery_as_bias)
            self._alias_tables[asn] = table
        return table

    def _tracker_sample_alias(self, probe: ProbeState, k: int, t: float) -> np.ndarray:
        """Alias-sampled tracker/gossip reply — O(batch), not O(swarm).

        Draws candidates from a precomputed biased sampler over the whole
        directory and rejects offline / already-known / self / duplicate
        picks, oversampling in bounded rounds.  Sampling is with-rejection
        rather than without-replacement, so replies follow the same biased
        distribution as the scan sampler but are *not* draw-identical to
        it — profiles choose one sampler and keep it (``discovery`` knob).
        """
        rng = self._rng_engine
        online = self._online_mask(t)
        bias = self.profile.discovery_as_bias
        table = (
            self._alias_table_for(int(self._asn[probe.gidx])) if bias > 0 else None
        )
        n = self.n_remote + self.n_probe
        picked: list[int] = []
        seen: set[int] = set()
        for _ in range(_ALIAS_MAX_ROUNDS):
            need = k - len(picked)
            if need <= 0:
                break
            m = max(2 * need, 8)
            cand = table.draw(rng, m) if table is not None else rng.integers(0, n, size=m)
            ok = online[cand] & ~probe.known_mask[cand] & (cand != probe.gidx)
            for g in cand[ok].tolist():
                if g not in seen:
                    seen.add(g)
                    picked.append(g)
                    if len(picked) == k:
                        break
        if not picked:
            return np.zeros(0, dtype=np.int64)
        arr = np.array(picked, dtype=np.int64)
        # Firewalled peers drop most unsolicited contacts (same post-filter
        # as the scan sampler).
        keep = ~self._firewalled[arr] | (rng.random(len(arr)) >= FIREWALL_DROP_PROB)
        return arr[keep]

    def _on_discovery(self, probe: ProbeState) -> None:
        t = self._queue.now
        found = self._tracker_sample(probe, self.profile.contact_batch, t)
        hs = self.profile.handshake_bytes
        code = probe.code
        for c in found.tolist():
            probe.add_known(c)
            self._record(t, probe.gidx, c, hs, PacketKind.SIGNALING)
            self._record(
                t + 2 * self._lat_of[code[c]], c, probe.gidx, hs, PacketKind.SIGNALING
            )
        self._queue.schedule(t + self.profile.contact_interval_s, self._on_discovery, probe)

    # -------------------------------------------------------------- partners
    def _on_partner_refresh(self, probe: ProbeState) -> None:
        t = self._queue.now
        rng = self._rng_engine
        online = self._online_mask(t)
        # Sticky partnerships: keep most current (online) partners, refill
        # the remaining slots from the known set with the awareness policy.
        kept = {
            g
            for g in probe.partners
            if online[g] and rng.random() < self.profile.partner_stickiness
        }
        known = probe.known_array()
        cands = known[online[known]] if len(known) else known
        if len(kept):
            # Same filter as ~np.isin(cands, kept) in the same order, via
            # set probes instead of isin's per-call sort of both arrays.
            cands = np.array(
                [c for c in cands.tolist() if c not in kept], dtype=np.int64
            )
        slots = self.profile.max_partners - len(kept)
        if len(cands) and slots > 0:
            scores = self._partner_scores_for(probe, cands)
            picked = self._partner_policy.choose_scored(scores, slots)
            new_partners = kept | {int(cands[i]) for i in picked}
        else:
            new_partners = kept
        added = new_partners - probe.partners
        removed = probe.partners - new_partners
        p = self.profile
        me = int(self._ip[probe.gidx])
        for g in added:
            other = int(self._ip[g])
            # Periodic buffer-map exchange runs both ways; keepalives too.
            self._signaling.open(me, other, t, p.buffermap_interval_s, p.buffermap_bytes)
            self._signaling.open(other, me, t, p.buffermap_interval_s, p.buffermap_bytes)
            self._signaling.open(me, other, t, p.keepalive_interval_s, p.keepalive_bytes)
            self._signaling.open(other, me, t, p.keepalive_interval_s, p.keepalive_bytes)
        for g in removed:
            other = int(self._ip[g])
            self._signaling.close(me, other, t)
            self._signaling.close(other, me, t)
        probe.set_partners(new_partners)
        self._queue.schedule(t + p.partner_refresh_s, self._on_partner_refresh, probe)

    # ------------------------------------------------------------- streaming
    def _on_tick(self, probe: ProbeState) -> None:
        """One probe's staggered tick: evict + scan, then schedule requests."""
        t = self._queue.now
        soa = self._soa
        pi = probe.pi
        floor, lookahead = soa.tick_scan(pi, t, self._live_lag, self._scan_limit)
        if lookahead and probe.partners:
            partners = probe.online_partners(self._online_mask(t), self._mask_key)
            slots = self._max_parallel - soa.inflight_n[pi]
            if slots > 0 and len(partners):
                self._sched_requests(probe, t, lookahead, partners, slots)
        self._queue.schedule(t + self._tick_interval, self._cb_tick, probe)

    def _on_tick_cohort(self) -> None:
        """Tick every probe in one event, ascending probe order.

        Selected by ``profile.tick_cohort``.  Two passes amortise the
        per-tick numpy dispatches across probes:

        1. **Scan pass** — one multi-row evict+scan
           (:meth:`SoAState.tick_scan_all`); the per-probe hole lists,
           online partner sets and free request slots are collected as
           work items.
        2. **Schedule pass** — :meth:`_cohort_build` precomputes every
           work item's availability block over the union of the actual
           hole ranges, then the schedulers run in ascending probe order,
           so the RNG stream and event insertion order are those of
           ticking the probes one after another at the same timestamp.

        Reordering scans before schedules is trace-invariant: a scan
        only mutates its own row below the shared floor (never scanned
        by others) and draws no randomness, so no schedule can observe
        the difference.
        """
        t = self._queue.now
        soa = self._soa
        floor, newest, scans = soa.tick_scan_all(t, self._live_lag, self._scan_limit)
        works = []
        online = None
        for probe in self._probes:
            holes = scans[probe.pi]
            if holes and probe.partners:
                if online is None:
                    online = self._online_mask(t)
                partners = probe.online_partners(online, self._mask_key)
                slots = self._max_parallel - soa.inflight_n[probe.pi]
                if slots > 0 and len(partners):
                    ctx = self._context(probe.pi, partners)
                    works.append((probe, holes, partners, slots, ctx))
        if works:
            # Cover the union of the works' actual hole ranges (hole lists
            # are newest-first), not the whole scan window: at steady state
            # holes cluster within a few chunks of the live edge.
            # Per-chunk threshold and bitmap values are independent of the
            # range start, so the precomputed blocks stay byte-identical.
            cmin = min(w[1][-1] for w in works)
            cmax = max(w[1][0] for w in works)
            self._cohort_build(t, cmin, cmax, works)
            for probe, holes, partners, slots, _ctx in works:
                self._sched_requests(probe, t, holes, partners, slots)
        self._queue.schedule(t + self._tick_interval, self._cb_tick_cohort)

    def _cohort_build(self, t: float, floor: int, newest: int, works: list) -> None:
        """Precompute availability blocks for one cohort tick.

        ``[floor, newest]`` is the chunk range to cover — the caller
        passes the union of the works' hole ranges, not the whole scan
        window, so the span is a handful of rows at steady state.  Both
        column families batch across the whole cohort:

        * **Probe columns** — one 2-D fancy gather over the shared
          bitmaps covering every ctx's probe-partner rows.
        * **Remote columns** — one stacked threshold matrix over every
          ctx's remote scalars (the per-ctx ``delays``/``ready`` vectors
          concatenated once and memoised by ctx identity), compared
          against ``t`` in a single elementwise pass.  The freshness
          deadline ``gen + retention`` depends only on the chunk id, so
          one span-length vector masks all ctxs at once.

        Each ctx then gets its ``cohort_A`` block — remote columns
        first, probe columns after — as two views into the stacked
        matrices plus one concatenate.  Probe slots past a row's top
        clamp onto the always-False guard column ("not held").  The
        per-chunk values are elementwise the ones the scalar scan
        computes (same threshold doubles, same IEEE compares), so the
        row-gather path is byte-identical.
        """
        soa = self._soa
        self._cohort_serial += 1
        serial = self._cohort_serial
        ci = self._av_chunk_interval
        retention = self._av_retention
        check_fresh = retention < soa.window_chunks * ci
        ctxs = []
        for work in works:
            ctx = work[4]
            if ctx["cohort_serial"] != serial:
                ctx["cohort_serial"] = serial
                ctxs.append(ctx)
        pcols = [c["probe_rows_arr"] for c in ctxs if c["probe_rows_arr"].size]
        PB = None
        if pcols:
            all_rows = np.concatenate(pcols)
            S = (
                np.arange(floor, newest + 1, dtype=np.int64)[:, None]
                - soa.base_arr[all_rows][None, :]
            )
            PB = soa.have[all_rows[None, :], np.minimum(S, soa.capacity)]
        rctxs = [c for c in ctxs if c["n_rem"]]
        AV = None
        if rctxs:
            key = tuple(c["uid"] for c in rctxs)
            if key != self._cohort_scalars_key:
                self._cohort_scalars_key = key
                self._cohort_delays = np.concatenate(
                    [c["delays"] for c in rctxs]
                )
                self._cohort_ready = np.concatenate([c["ready"] for c in rctxs])
            gens = np.arange(floor, newest + 1, dtype=np.float64) * ci
            thr = np.maximum(
                gens[:, None] + self._cohort_delays[None, :],
                self._cohort_ready[None, :],
            )
            AV = thr <= t
            if check_fresh:
                AV &= (gens + retention > t)[:, None]
        roff = poff = 0
        for ctx in ctxs:
            avail = pb = None
            n = ctx["n_rem"]
            if n:
                avail = AV[:, roff : roff + n]
                roff += n
            k = ctx["probe_rows_arr"].size
            if k:
                pb = PB[:, poff : poff + k]
                poff += k
            if avail is None:
                ctx["cohort_A"] = pb
            elif pb is None:
                ctx["cohort_A"] = avail
            else:
                ctx["cohort_A"] = np.concatenate((avail, pb), axis=1)
        self._cohort_t = t
        self._cohort_floor = floor

    def _context(self, pi: int, partners: np.ndarray) -> dict:
        """Probe ``pi``'s partner context for one online partner array.

        Memoised per partner set — sets only change at refresh/churn
        boundaries.  Holds the partners in plan order (the array order,
        which decides holder order and so the provider draws), the remote
        partners' diffusion scalars and each partner's provider score.
        """
        last = self._last_ctx[pi]
        if last is not None and last[0] is partners:
            return last[1]
        key = partners.tobytes()
        store = self._contexts[pi]
        ctx = store.get(key)
        if ctx is None:
            ctx = self._build_context(pi, partners)
            if len(store) >= _PARTNER_CTX_MAX:
                # Oldest partner set first (insertion order): sets displaced
                # by churn/refresh rarely return, and when one does the ctx
                # is rebuilt bit-identically from the same static inputs.
                store.pop(next(iter(store)))
            store[key] = ctx
        self._last_ctx[pi] = (partners, ctx)
        return ctx

    def _build_context(self, pi: int, partners: np.ndarray) -> dict:
        cols = partners.tolist()
        nr = self.n_remote
        is_remote = partners < nr
        delays, ready = self.availability.subset(partners[is_remote])
        n_rem = int(is_remote.sum())
        # The cohort block stores the remote columns as a leading block and
        # the probe columns as a trailing block (each in plan order), so
        # _cohort_build assembles it with one concatenate.
        # ``plan`` maps back, in plan order: each partner's gidx, its
        # remote column (-1 for probes) and its bitmap row (-1 for
        # remotes); ``plan_cols`` is its cohort-block column.
        plan: list[tuple[int, int, int]] = []
        plan_cols = []
        r = p = 0
        for g in cols:
            if g < nr:
                plan.append((g, r, -1))
                plan_cols.append(r)
                r += 1
            else:
                plan.append((g, -1, g - nr))
                plan_cols.append(n_rem + p)
                p += 1
        # Provider scores over the plan, by awareness code.
        scores = self._provider_table[self._probes[pi].codes[partners]]
        raw = scores.tobytes()
        probe_plan = [(g, row) for g, _k, row in plan if row >= 0]
        ctx = {
            "plan": plan,
            "probe_plan": probe_plan,
            "plan_cols": np.array(plan_cols, dtype=np.int64),
            "plan_g": partners,
            "n_rem": n_rem,
            "delays": delays,
            "ready": ready,
            "delays_list": delays.tolist(),
            "ready_list": ready.tolist(),
            "plan_scores": scores,
            # Each partner's provider score as its 8 float64 bytes: a
            # holder list's scores joined are the provider draw's CDF
            # memo key, the same bytes the cohort gather slices out.
            "score_key": {g: raw[8 * j : 8 * j + 8] for j, g in enumerate(cols)},
            # Probe-partner bitmap rows, in plan order, for the gather.
            "probe_rows_arr": np.array([row for _g, row in probe_plan], dtype=np.int64),
            # Smallest delay among the ready remote partners, valid until
            # the next partner's ready time (see _advertisers_scalar).
            "dmin": np.inf,
            "dmin_until": -np.inf,
            # Cohort-tick block (see _cohort_build): valid only while the
            # serial matches the engine's current cohort build.
            "cohort_serial": 0,
            "cohort_A": None,
            "uid": self._ctx_uid,
        }
        self._ctx_uid += 1
        return ctx

    def _advertisers(self, ctx: dict, chunks: list[int], t: float) -> Iterable[tuple]:
        """The partners advertising each of ``chunks`` at ``t``, in plan order.

        Buffer-map ground truth: remote partners through the diffusion
        thresholds ``max(gen + delay, ready) <= t < gen + retention``,
        probe partners through their ``have`` bitmaps.  Yields one
        ``(holders, key)`` pair per chunk, in chunk order: ``key`` is the
        float64 bytes of the holders' provider scores (the provider draw's
        CDF memo key) from the cohort gather, which gets it for free, and
        None from the scalar scan.  Pipelining caps are not applied (the
        schedulers drop ``busy_over`` providers at each chunk's turn).  A
        pure read — no RNG, no state change.

        Two evaluations, both yielding the same lists: a row gather when
        this tick's cohort build covered the ctx, and the scalar per-chunk
        scan for every other question.
        """
        if ctx["cohort_serial"] != self._cohort_serial or t != self._cohort_t:
            return self._advertisers_scalar(ctx, chunks, t)
        A = ctx["cohort_A"][np.asarray(chunks) - self._cohort_floor]
        # Permuting A's columns into plan order makes the flat ``nonzero``
        # walk visit each row's advertisers in plan order; each row's
        # advertisers are then one slice of the flat partner list.
        ri, cj = A[:, ctx["plan_cols"]].nonzero()
        gs = ctx["plan_g"][cj].tolist()
        scores = ctx["plan_scores"][cj]
        bounds = np.searchsorted(ri, np.arange(len(chunks) + 1)).tolist()
        # Lazily, row by row: a newest-first scheduler that runs out of
        # request slots never pays for the rows it does not reach.
        return (
            (gs[s0:s1], scores[s0:s1].tobytes())
            for s0, s1 in zip(bounds, bounds[1:])
        )

    def _advertisers_scalar(self, ctx: dict, chunks: list[int], t: float) -> list[tuple]:
        """:meth:`_advertisers` as a per-chunk Python scan.

        A remote partner serves ``chunk`` iff ``max(gen + delay, ready) <=
        t < gen + retention``; the max of two doubles is one of them, so
        the test splits into ``gen + delay <= t`` and ``ready <= t`` — the
        same IEEE adds and compares as the cohort block.  Since
        ``gen + delay`` is monotone in ``delay``, some remote partner
        serves the chunk iff the smallest delay among the ready ones
        does; a chunk no remote can serve yet (or any more) skips the
        remote columns and scans only the probe partners' bitmaps.
        Scanned chunks sit at/above every partner's row base (a partner's
        base is at most its own last floor, which is at most the
        scanner's), so the bitmap slot is never negative.
        """
        soa = self._soa
        have = soa.have
        base = soa.base
        cap = soa.capacity
        probe_plan = ctx["probe_plan"]
        delays = ctx["delays_list"]
        ready = ctx["ready_list"]
        if ready and t >= ctx["dmin_until"]:
            # Ready flags only flip when t passes a partner's ready time.
            ds = [d for d, r in zip(delays, ready) if r <= t]
            later = [r for r in ready if r > t]
            ctx["dmin"] = min(ds) if ds else np.inf
            ctx["dmin_until"] = min(later) if later else np.inf
        dmin = ctx["dmin"]
        plan = ctx["plan"]
        ci = self._av_chunk_interval
        retention = self._av_retention
        out = []
        for chunk in chunks:
            gen = chunk * ci
            if gen + dmin <= t < gen + retention:
                holders = [
                    g
                    for g, k, row in plan
                    if (
                        gen + delays[k] <= t and ready[k] <= t
                        if k >= 0
                        else (s := chunk - base[row]) < cap and have[row, s]
                    )
                ]
            else:
                holders = [
                    g
                    for g, row in probe_plan
                    if (s := chunk - base[row]) < cap and have[row, s]
                ]
            out.append((holders, None))
        return out

    def _request_chunk(self, probe: ProbeState, provider: int, chunk: int, t: float) -> bool:
        """Issue a chunk request; returns True when a transfer was queued.

        Recording is inlined (same tuples as :meth:`_record`): this runs
        once per request attempt and the call overhead is measurable at
        that rate.
        """
        pg = probe.gidx
        lat = self._lat_of[probe.code[provider]]
        ul = self._up_list
        dl = self._down_list
        ipl = self._ip_list
        rng = self._rng_engine
        up = ul[pg]
        dn = dl[provider]
        self._rec_append(
            (t, ipl[pg], ipl[provider], REQUEST_BYTES, _KIND_CONTROL, up if up < dn else dn)
        )
        if self._loss_schedule is not None:
            loss_prob = self._loss_schedule.prob_at(t)
        else:
            loss_prob = self._loss_prob
        if loss_prob > 0 and rng.random() < loss_prob:
            # The request datagram was lost; nothing comes back and the
            # chunk ages until the next tick retries it.
            return False
        if rng.random() < self._stale_prob:
            # Stale buffer map: the provider no longer has (or never had)
            # the chunk and answers with a short decline.
            up = ul[provider]
            dn = dl[pg]
            self._rec_append(
                (
                    t + 2 * lat,
                    ipl[provider],
                    ipl[pg],
                    REQUEST_BYTES,
                    _KIND_CONTROL,
                    up if up < dn else dn,
                )
            )
            return False
        nbytes = self._chunk_bytes
        # Inlined UplinkScheduler.admit (same floats, same compares).
        t_req = t + lat
        free = self._ul_free
        start = free[provider]
        if start < t_req:
            start = t_req
        if start - t_req > self._ul_max_backlog:
            return False
        free[provider] = start + nbytes * BITS_PER_BYTE / self._ul_bps[provider]
        up = ul[provider]
        dn = dl[pg]
        bn = up if up < dn else dn  # bottleneck_bps, inlined
        arrival = start + nbytes * BITS_PER_BYTE / bn + lat
        self._rec_append((start, ipl[provider], ipl[pg], nbytes, _KIND_VIDEO, bn))
        self._soa.inflight_add(probe.pi, chunk)
        probe.busy[provider] += 1
        if probe.busy[provider] >= self._cap_out:
            probe.busy_over.add(provider)
        self._queue.schedule(arrival, self._cb_arrival, probe, chunk, provider)
        return True

    def _on_chunk_arrival(self, probe: ProbeState, chunk: int, provider: int) -> None:
        soa = self._soa
        soa.inflight_discard(probe.pi, chunk)
        soa.have_add(probe.pi, chunk)
        if probe.busy[provider] > 0:
            probe.busy[provider] -= 1
            if probe.busy[provider] < self._cap_out:
                probe.busy_over.discard(provider)
        if self._sched_push:
            # Push-based policies forward the chunk onwards from here.
            self._scheduler.on_chunk_received(probe, chunk, provider, self._queue.now)

    # ------------------------------------------------------ remote demand
    def _demand_target(self, probe_gidx: int) -> float:
        base = self.profile.remote_demand
        return base if self._highbw[probe_gidx] else base * LOWBW_DEMAND_FACTOR

    def _on_demand_rebalance(self) -> None:
        """Re-sample which remotes download from which probes.

        Runs every ``demand_rebalance_s``: each probe attracts a
        Poisson-distributed number of remote downloaders, sampled with the
        profile's remote-side awareness weights (this is the ground-truth
        mechanism behind the paper's *upload*-direction metrics).
        """
        t = self._queue.now
        rng = self._rng_engine
        online = self._online_mask(t)
        remotes = np.flatnonzero(online[: self.n_remote])
        self._attached.clear()
        if len(remotes):
            for probe in self._probes:
                target = self._demand_target(probe.gidx)
                if self._firewalled[probe.gidx]:
                    # Firewalled probes drop most unsolicited inbound
                    # sessions; only the surviving fraction attaches.
                    target *= 1.0 - self.config.firewall_attach_drop_prob
                k = min(int(rng.poisson(target)), len(remotes))
                if k == 0:
                    continue
                picked = self._remote_policy.choose_scored(
                    self._remote_table[probe.codes[remotes]], k
                )
                window_end = min(t + self.config.demand_rebalance_s, self.config.duration_s)
                for i in picked:
                    r = int(remotes[i])
                    self._attached.add((r, probe.gidx))
                    probe.add_known(r)
                    self._record(t, r, probe.gidx, self.profile.handshake_bytes, PacketKind.SIGNALING)
                    self._schedule_pulls(r, probe, t, window_end)
        self._queue.schedule(
            t + self.config.demand_rebalance_s, self._on_demand_rebalance
        )

    def _schedule_pulls(self, remote: int, probe: ProbeState, t0: float, t1: float) -> None:
        """Draw the remote's pull times for one rebalance window, batched.

        The RNG draws (Poisson count, sorted uniform times) are identical
        to the per-pull scheme this replaced.  Instead of pushing one
        queue event per pull, the whole window becomes *one* chained
        array-walking event per (remote, probe) pair: each dispatch
        serves pull ``i`` and schedules pull ``i + 1``, so the pending
        event count per window drops from ~rate × window to one per
        attached pair while the dispatch times — and hence all transport
        interleavings — stay exactly the per-pull floats.

        The remote's *want* (its newest missing chunk, eq. to
        :meth:`RemoteAvailability.newest_missing`) is a pure function of
        the pull time, so the whole window's wants are precomputed here
        as one vectorised arrival-time pass — same truncating divisions,
        same IEEE doubles as the scalar per-event computation.
        """
        rng = self._rng_engine
        rate = self.profile.remote_pull_rate
        if rate <= 0:
            return
        n = rng.poisson(rate * (t1 - t0))
        if n == 0:
            return
        times = np.sort(rng.uniform(t0, t1, size=n))
        delay, ready = self.availability.scalar_view(remote)
        ci = self.availability.chunk_interval
        live = (times / ci).astype(np.int64)
        have_up_to = (np.maximum(0.0, times - delay) / ci).astype(np.int64)
        newest_missing = have_up_to + 1
        wants = np.where(
            times < ready,
            live,
            np.where(newest_missing <= live, newest_missing, -1),
        )
        self._queue.schedule(
            float(times[0]),
            self._cb_pull,
            remote,
            probe,
            delay,
            ready,
            times.tolist(),
            wants.tolist(),
            0,
        )

    def _on_remote_pull(
        self,
        remote: int,
        probe: ProbeState,
        delay: float,
        ready: float,
        times: list[float],
        wants: list[int],
        i: int,
    ) -> None:
        """Serve pull ``i`` of the window, then chain-schedule pull ``i+1``.

        ``delay``/``ready`` are the remote's (static) availability scalars,
        resolved once per window in :meth:`_schedule_pulls` and carried in
        the chain arguments.  The newest-serveable scan — the newest of
        the ≤ 6 chunks below ``want`` that the probe holds and the remote
        still lacks — is inlined here with the oracle's exact arithmetic
        (``max(gen + delay, ready) > t`` or aged past retention), reading
        the probe's bitmap row directly.
        """
        t = times[i]
        pg = probe.gidx
        if (remote, pg) in self._attached and t < self._leave_list[remote]:
            ul = self._up_list
            dl = self._down_list
            ipl = self._ip_list
            up = ul[remote]
            dn = dl[pg]
            self._rec_append(
                (t, ipl[remote], ipl[pg], REQUEST_BYTES, _KIND_CONTROL, up if up < dn else dn)
            )
            want = wants[i]
            if want >= 0:
                soa = self._soa
                pi = probe.pi
                have = soa.have
                b = soa.base[pi]
                cap = soa.capacity
                ci = self._av_chunk_interval
                ret = self._av_retention
                lo = want - 6
                if lo < 0:
                    lo = 0
                chunk = want
                while chunk >= lo:
                    s = chunk - b
                    if have[pi, s] if 0 <= s < cap else chunk in soa.low[pi]:
                        gen = chunk * ci
                        arrival = gen + delay
                        if ready > arrival:
                            arrival = ready
                        if t < arrival or t >= gen + ret:
                            # The remote lacks it → serve this chunk.
                            nbytes = self._chunk_bytes
                            lat = self._lat_of[probe.code[remote]]
                            # Inlined UplinkScheduler.admit.
                            t_req = t + lat
                            free = self._ul_free
                            start = free[pg]
                            if start < t_req:
                                start = t_req
                            if start - t_req <= self._ul_max_backlog:
                                free[pg] = (
                                    start + nbytes * BITS_PER_BYTE / self._ul_bps[pg]
                                )
                                up = ul[pg]
                                dn = dl[remote]
                                self._rec_append(
                                    (
                                        start,
                                        ipl[pg],
                                        ipl[remote],
                                        nbytes,
                                        _KIND_VIDEO,
                                        up if up < dn else dn,
                                    )
                                )
                            break
                    chunk -= 1
        i += 1
        if i < len(times):
            self._queue.schedule(
                times[i], self._cb_pull, remote, probe, delay, ready, times, wants, i
            )

    # ------------------------------------------------------------------- run
    def run(self) -> SimulationResult:
        """Execute the experiment and return the raw result bundle."""
        t_stagger = self.profile.tick_interval_s / max(1, self.n_probe)
        cohort = self.profile.tick_cohort
        for i, probe in enumerate(self._probes):
            self._build_code_row(probe)
            found = self._tracker_sample(probe, self.profile.tracker_initial, 0.0)
            for g in found.tolist():
                probe.add_known(g)
            hs = self.profile.handshake_bytes
            for cand in found:
                self._record(0.0, probe.gidx, int(cand), hs, PacketKind.SIGNALING)
                self._record(0.0, int(cand), probe.gidx, hs, PacketKind.SIGNALING)
            self._queue.schedule(i * t_stagger, self._on_partner_refresh, probe)
            if not cohort:
                self._queue.schedule(0.05 + i * t_stagger, self._on_tick, probe)
            self._queue.schedule(
                0.5 + i * t_stagger * 10, self._on_discovery, probe
            )
        if cohort:
            # All probes tick in one event (ascending probe order) so the
            # array kernels can batch across the cohort.
            self._queue.schedule(0.05, self._on_tick_cohort)
        self._queue.schedule(0.0, self._on_demand_rebalance)

        events = self._queue.run_until(self.config.duration_s)
        transfers = self._recorder.finalize()
        signaling = self._signaling.finalize(self.config.duration_s)

        hosts = HostTable.from_columns(
            ip=self._ip,
            asn=self._asn,
            cc=np.array([self._cc_labels[c] for c in self._cc], dtype="U2"),
            subnet=self._subnet,
            up_bps=self._up,
            down_bps=self._down,
            is_probe=self._is_probe,
            highbw=self._highbw,
            initial_ttl=self._initial_ttl,
            access_depth=self._access_depth,
        )
        # Event-loop statistics: vectorised accounting over the finished
        # log, so the hot path pays nothing and determinism is untouched.
        video = transfers["kind"] == int(PacketKind.VIDEO)
        # Per-kind scheduler accounting, keyed by handler name with the
        # ``_on_`` prefix stripped (tick, remote_pull, chunk_arrival, …).
        dispatch_by_kind = {
            name.removeprefix("_on_"): count
            for name, count in sorted(self._queue.dispatched_by_kind.items())
        }
        schedule_by_kind = {
            name.removeprefix("_on_"): count
            for name, count in sorted(self._queue.scheduled_by_kind.items())
        }
        stats = {
            "events": int(events),
            "events_scheduled": int(sum(schedule_by_kind.values())),
            "dispatch_by_kind": dispatch_by_kind,
            "schedule_by_kind": schedule_by_kind,
            "peak_queue_depth": int(self._queue.peak_depth),
            "transfer_records": int(len(transfers)),
            "signaling_intervals": int(len(signaling)),
            "bytes_recorded": int(transfers["bytes"].sum()),
            "video_records": int(video.sum()),
            "video_bytes": int(transfers["bytes"][video].sum()),
            "remote_peers": int(self.n_remote),
            "probes": int(self.n_probe),
        }
        _log.info(
            "run-complete",
            profile=self.profile.name,
            duration_s=self.config.duration_s,
            seed=self.config.seed,
            **stats,
        )
        return SimulationResult(
            transfers=transfers,
            signaling=signaling,
            hosts=hosts,
            testbed=self.testbed,
            world=self.world,
            profile=self.profile,
            config=self.config,
            events_processed=events,
            extras={"engine_stats": stats},
        )


def simulate(
    profile: AppProfile,
    *,
    duration_s: float = 600.0,
    seed: int = 7,
    world: World | None = None,
    testbed: Testbed | None = None,
    demographics: Demographics | None = None,
    engine_config: EngineConfig | None = None,
) -> SimulationResult:
    """Run one complete experiment for ``profile`` — the main entry point.

    Builds (or reuses) the synthetic Internet and Table I testbed,
    generates the profile's audience, runs the engine, and returns the raw
    result.  The audience honours the profile's ``eu_audience_boost`` and
    ``probe_as_fraction`` (channel-popularity effects).
    """
    config = engine_config or EngineConfig(duration_s=duration_s, seed=seed)
    if world is None:
        world = World()
    if testbed is None:
        testbed = build_napa_wine_testbed(world)
    if demographics is None:
        audience = (
            crossswarm_audience if profile.audience == "crossswarm" else cctv1_audience
        )
        base = audience(probe_as_fraction=profile.probe_as_fraction)
        if profile.eu_audience_boost != 1.0:
            weights = dict(base.country_weights)
            for cc in ("IT", "FR", "HU", "PL"):
                weights[cc] = weights.get(cc, 1.0) * profile.eu_audience_boost
            demographics = Demographics(
                country_weights=weights,
                highbw_fraction=base.highbw_fraction,
                default_highbw=base.default_highbw,
                probe_as_fraction=profile.probe_as_fraction,
            )
        else:
            demographics = base
    # The swarm field picks the draw scheme; both give the same columns.
    generate = generate_sparse_swarm if profile.swarm == "sparse" else generate_population
    population = generate(
        world,
        PopulationConfig(size=profile.swarm_size, demographics=demographics),
        RngBundle(config.seed)["population"],
    )
    return Engine(world, testbed, profile, population, config).run()

