"""Per-application behaviour profiles (the simulator's ground truth).

Each :class:`AppProfile` encodes, for one P2P-TV system, the protocol
parameters that the paper's measurements characterise from the outside:

* **reach** — swarm size seen, discovery aggressiveness (Table II's "all
  peers": PPLive contacts two orders of magnitude more peers than TVAnts);
* **awareness weights** — how candidate peers are preferred by access
  bandwidth / AS / country / subnet / hop distance, at three decision
  points: partner admission, per-chunk provider choice, and the remote
  side's choice of which probes to download from (upload direction);
* **signaling economy** — handshake/buffer-map/keepalive sizes and rates
  (PPLive's larger received rate in Table II is signaling overhead);
* **demand** — how many concurrent remote downloaders a high-bandwidth
  probe attracts (PPLive probes uploaded ~3.4 Mb/s on average).

The numeric values are *not* taken from the paper (the apps are closed);
they are chosen so that applying the paper's own analysis to the simulated
traffic reproduces the qualitative structure of Tables II–IV and
Figs. 1–2.  The analysis framework never reads these weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.population.churn import ChurnConfig
from repro.streaming.availability import AvailabilityConfig
from repro.streaming.schedulers import DEFAULT_SCHEDULER, SCHEDULER_NAMES
from repro.streaming.selection import SelectionWeights
from repro.streaming.video import VideoConfig


@dataclass(frozen=True, slots=True)
class AppProfile:
    """Complete behavioural description of one P2P-TV application."""

    name: str
    video: VideoConfig = field(default_factory=VideoConfig)

    # --- swarm & audience -------------------------------------------------
    swarm_size: int = 1000
    #: Extra weight on probe-country audience share (channel popularity in
    #: Europe); 1.0 = the default CCTV-1 mix.
    eu_audience_boost: float = 1.0
    #: Fraction of probe-country remotes placed inside campus ASes.
    probe_as_fraction: float = 0.25
    #: Population draw scheme: ``"dense"`` draws peer by peer (the
    #: sequence the paper-profile golden hashes pin); ``"sparse"`` draws
    #: seeded blocks in bulk (:mod:`repro.population.sparse`), which
    #: scales past ~10^4 peers.  Both give the engine the same columns.
    swarm: str = "dense"
    #: Audience demographics: ``"cctv1"`` (the paper's CN-dominated channel)
    #: or ``"crossswarm"`` (the Western-centric cross-swarm-study mix).
    audience: str = "cctv1"

    # --- discovery ---------------------------------------------------------
    tracker_initial: int = 60
    contact_interval_s: float = 2.0
    contact_batch: int = 2
    #: Multiplicative sampling weight for same-AS peers in tracker/gossip
    #: replies (TVAnts discovers same-AS peers far more efficiently).
    discovery_as_bias: float = 0.0
    #: Tracker/gossip reply sampling: ``"scan"`` draws without replacement
    #: over a dense candidate mask (O(swarm) per reply, exact); ``"alias"``
    #: draws from a precomputed alias table with rejection of
    #: offline/known peers (O(batch) per reply — paper-scale swarms).
    discovery: str = "scan"

    # --- partner management --------------------------------------------
    max_partners: int = 25
    partner_refresh_s: float = 20.0
    partner_weights: SelectionWeights = field(default_factory=SelectionWeights)
    #: Probability of keeping an existing partner across a refresh.  Sticky
    #: partnerships concentrate bytes on few, long-lived pairs (what the
    #: paper's heavy probe-probe flows show); low stickiness spreads bytes
    #: across many short-lived contributors.
    partner_stickiness: float = 0.75

    # --- per-chunk provider choice --------------------------------------
    provider_weights: SelectionWeights = field(default_factory=SelectionWeights)
    #: Per-fetch probability of ignoring the weights and picking a holder
    #: uniformly — the random exploration all mesh-pull systems do, and the
    #: reason low-bandwidth peers appear in the contributor set at all
    #: while receiving few bytes.
    explore_prob: float = 0.1
    selection_temperature: float = 1.0
    tick_interval_s: float = 0.4
    max_parallel_requests: int = 8
    #: Chunk-scheduling policy (see :mod:`repro.streaming.schedulers`):
    #: which missing chunks to request, in what order, from whom.  The
    #: measured systems are all mesh-pull; the alternatives exist for
    #: what-if studies and to prove the awareness analysis is
    #: scheduler-independent.
    scheduler: str = DEFAULT_SCHEDULER
    #: Chunks of head-room kept behind the live edge when requesting, so
    #: that targets have had time to diffuse to remote providers too.
    live_lag_chunks: int = 3
    #: When true, all probes tick in one cohort event (ascending probe
    #: order) instead of 46 staggered per-probe events, letting the
    #: engine batch its per-tick kernels across the whole cohort.  Trace
    #: semantics are unchanged — only event grouping differs — but cohort
    #: and staggered runs of the same profile are *different* experiments.
    tick_cohort: bool = False

    # --- upload direction (remote downloaders) ---------------------------
    #: Mean concurrent remote downloaders attracted by a high-bw probe.
    remote_demand: float = 1.5
    #: How remotes choose probes to download from.
    remote_weights: SelectionWeights = field(default_factory=SelectionWeights)
    #: Chunk pulls per second per attached remote downloader.
    remote_pull_rate: float = 3.0

    # --- signaling economy ------------------------------------------------
    handshake_bytes: int = 120
    buffermap_interval_s: float = 2.0
    buffermap_bytes: int = 120
    keepalive_interval_s: float = 10.0
    keepalive_bytes: int = 60

    # --- population dynamics ---------------------------------------------
    churn: ChurnConfig = field(default_factory=ChurnConfig)
    availability: AvailabilityConfig = field(default_factory=AvailabilityConfig)

    def __post_init__(self) -> None:
        if self.swarm_size < 0:
            raise ConfigurationError("swarm_size must be >= 0")
        if self.contact_interval_s <= 0 or self.tick_interval_s <= 0:
            raise ConfigurationError("intervals must be positive")
        if self.max_partners < 1:
            raise ConfigurationError("need at least one partner slot")
        if self.remote_pull_rate < 0 or self.remote_demand < 0:
            raise ConfigurationError("remote demand must be non-negative")
        if self.scheduler not in SCHEDULER_NAMES:
            raise ConfigurationError(
                f"unknown chunk scheduler {self.scheduler!r}; "
                f"valid choices: {list(SCHEDULER_NAMES)}"
            )
        if self.swarm not in ("dense", "sparse"):
            raise ConfigurationError(
                f"unknown swarm draw scheme {self.swarm!r}; "
                "valid choices: ['dense', 'sparse']"
            )
        if self.audience not in ("cctv1", "crossswarm"):
            raise ConfigurationError(
                f"unknown audience {self.audience!r}; "
                "valid choices: ['cctv1', 'crossswarm']"
            )
        if self.discovery not in ("scan", "alias"):
            raise ConfigurationError(
                f"unknown discovery sampler {self.discovery!r}; "
                "valid choices: ['scan', 'alias']"
            )

    def scaled(self, factor: float) -> "AppProfile":
        """A copy with the swarm (and discovery reach) scaled by ``factor``.

        Used by quick tests and benches; relative magnitudes across
        applications are preserved.  Legacy dense profiles keep their
        historical silent floors (pinned by downstream fixtures); sparse
        paper-scale profiles route through the validating
        :meth:`scaled_swarm` instead, where a scale that breaks discovery
        assumptions is an error, not a clamp.
        """
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        if self.swarm == "sparse":
            return self.scaled_swarm(int(round(self.swarm_size * factor)))
        return replace(
            self,
            swarm_size=max(10, int(self.swarm_size * factor)),
            tracker_initial=max(5, int(self.tracker_initial * factor)),
            contact_batch=max(1, int(round(self.contact_batch * factor))),
        )

    def scaled_swarm(self, size: int) -> "AppProfile":
        """A copy resized to exactly ``size`` remote peers, validated.

        Unlike :meth:`scaled` this never silently clamps: the requested
        size must be positive and large enough to honour the profile's
        discovery reach (``tracker_initial``) — a tracker cannot seed more
        peers than the swarm holds.  Discovery parameters saturate rather
        than scale: ``tracker_initial`` and ``contact_batch`` stay fixed,
        matching how real trackers answer the same reply size regardless
        of swarm size.
        """
        if size < 1:
            raise ConfigurationError(
                f"swarm size must be >= 1, got {size}"
            )
        reach = self.tracker_initial
        if size < reach:
            raise ConfigurationError(
                f"profile {self.name!r}: swarm size {size} below the "
                f"profile's discovery reach of {reach} peers "
                f"(tracker_initial={self.tracker_initial} sets the limit: a "
                f"tracker reply must fit inside the swarm, so size >= {reach} "
                "is required); shrink the profile explicitly instead of "
                "overflowing tracker replies"
            )
        return replace(self, swarm_size=size)


def pplive() -> AppProfile:
    """PPLive: huge reach, heavy signaling, strong BW + AS preference.

    Paper signatures: ~23 k contacted peers per probe-hour (two orders of
    magnitude above TVAnts); mean upload ~3.4 Mb/s; download byte
    preference 10× the peer preference for same-AS peers; largest received
    rate due to signaling overhead.
    """
    return AppProfile(
        name="pplive",
        swarm_size=4000,
        probe_as_fraction=0.35,
        tracker_initial=300,
        contact_interval_s=1.0,
        contact_batch=6,
        discovery_as_bias=0.0,
        max_partners=40,
        partner_refresh_s=15.0,
        partner_weights=SelectionWeights(bw=1.8, as_=0.8),
        provider_weights=SelectionWeights(bw=2.6, as_=1.4),
        explore_prob=0.15,
        live_lag_chunks=5,
        max_parallel_requests=10,
        remote_demand=12.0,
        remote_weights=SelectionWeights(bw=2.4, as_=0.3),
        handshake_bytes=200,
        buffermap_interval_s=1.0,
        buffermap_bytes=220,
        keepalive_interval_s=5.0,
    )


def sopcast() -> AppProfile:
    """SopCast: medium reach, strong BW preference, location-blind."""
    return AppProfile(
        name="sopcast",
        swarm_size=900,
        probe_as_fraction=0.35,
        tracker_initial=80,
        contact_interval_s=4.0,
        contact_batch=2,
        discovery_as_bias=0.0,
        max_partners=25,
        partner_refresh_s=20.0,
        partner_weights=SelectionWeights(bw=1.8),
        provider_weights=SelectionWeights(bw=2.6),
        max_parallel_requests=8,
        remote_demand=1.0,
        remote_weights=SelectionWeights(bw=2.2),
        handshake_bytes=120,
        buffermap_interval_s=2.0,
        buffermap_bytes=120,
    )


def tvants() -> AppProfile:
    """TVAnts: small swarm, strong BW + strongest AS locality.

    Paper signatures: discovers same-AS peers very efficiently (13.5 % of
    contributors vs PPLive's 1.3 %), exchanges ~2× more traffic with
    intra-AS peers (Fig. 2 ratio R = 1.93), upload ≈ download rate.
    """
    return AppProfile(
        name="tvants",
        swarm_size=260,
        probe_as_fraction=0.35,
        tracker_initial=40,
        contact_interval_s=12.0,
        contact_batch=1,
        discovery_as_bias=5.0,
        max_partners=15,
        partner_refresh_s=30.0,
        partner_weights=SelectionWeights(bw=1.8, as_=1.0),
        provider_weights=SelectionWeights(bw=2.2, as_=1.9),
        max_parallel_requests=6,
        remote_demand=1.6,
        remote_weights=SelectionWeights(bw=1.6, as_=2.2),
        handshake_bytes=120,
        buffermap_interval_s=2.0,
        buffermap_bytes=120,
    )


def pplive_popular() -> AppProfile:
    """PPLive tuned to a channel popular in Europe (Fig. 2 variant).

    More local audience ⇒ many same-AS and same-LAN peers are online, so
    intra-AS (mostly hop-0) traffic dominates the probe-to-probe matrix.
    """
    base = pplive()
    return replace(
        base,
        name="pplive-popular",
        eu_audience_boost=4.0,
        probe_as_fraction=0.4,
        provider_weights=SelectionWeights(bw=2.6, as_=3.2),
    )


def napa_wine() -> AppProfile:
    """A *next-generation* network-aware client (the paper's conclusion).

    Not a measured system: this profile embodies what the paper says
    future P2P-TV applications should do — keep the bandwidth awareness
    that makes streaming work, but aggressively localise traffic by AS,
    subnet and path length ("better localizing the traffic the network
    has to carry, seeking shorter paths, exploiting topology knowledge").
    Used by the what-if evaluation in :mod:`repro.friendliness`.
    """
    return AppProfile(
        name="napa-wine",
        swarm_size=900,
        probe_as_fraction=0.35,
        tracker_initial=80,
        contact_interval_s=4.0,
        contact_batch=2,
        discovery_as_bias=5.0,
        max_partners=25,
        partner_refresh_s=20.0,
        partner_weights=SelectionWeights(bw=1.6, as_=1.6, net=1.0, hop=0.8),
        provider_weights=SelectionWeights(bw=2.2, as_=2.2, net=1.2, hop=1.0),
        max_parallel_requests=8,
        remote_demand=1.0,
        remote_weights=SelectionWeights(bw=1.6, as_=2.0, hop=0.8),
        handshake_bytes=120,
        buffermap_interval_s=2.0,
        buffermap_bytes=120,
    )


def napa_scale() -> AppProfile:
    """The network-aware client at the paper's *measured* swarm scale.

    The paper's CCTV-1 swarms held ~1.8×10^5 concurrent peers; every other
    profile subsamples that population by two to three orders of magnitude
    (their per-peer draw loop is pinned by the goldens).  This profile runs
    the napa-wine awareness policy against the full-size swarm drawn in
    bulk blocks (``swarm="sparse"``): audience demographics follow the
    BitTorrent cross-swarm study mix, tracker/gossip replies are
    alias-sampled (O(batch), not O(swarm)), and all probes tick in one
    cohort so the engine can batch its kernels across probes.

    The channel is the paper's HD case: 1 Mbps video in 16 kB chunks
    (a 128 ms chunk clock, ~7.8 chunks/s), the rate class the paper
    reports as the hardest for chunk retrieval at scale.  Partner lists
    are wide (200) — at 1.8×10^5 peers the neighbourhood a tracker reply
    can cover is a tiny swarm fraction, so clients hold every contact —
    with correspondingly slower buffer-map and gossip clocks to keep
    signaling per-link at the measured order.
    """
    return AppProfile(
        name="napa-scale",
        swarm_size=180_000,
        swarm="sparse",
        audience="crossswarm",
        discovery="alias",
        tick_cohort=True,
        probe_as_fraction=0.005,
        tracker_initial=200,
        contact_interval_s=4.0,
        contact_batch=4,
        discovery_as_bias=5.0,
        max_partners=200,
        partner_refresh_s=20.0,
        partner_weights=SelectionWeights(bw=1.6, as_=1.6, net=1.0, hop=0.8),
        provider_weights=SelectionWeights(bw=2.2, as_=2.2, net=1.2, hop=1.0),
        max_parallel_requests=16,
        remote_demand=1.0,
        remote_weights=SelectionWeights(bw=1.6, as_=2.0, hop=0.8),
        handshake_bytes=120,
        buffermap_interval_s=5.0,
        buffermap_bytes=120,
        video=VideoConfig(
            rate_bps=1_000_000.0,
            chunk_bytes=16000,
            buffer_window_s=30.0,
            playout_delay_s=10.0,
        ),
    )


def mega_scale() -> AppProfile:
    """napa-scale stretched a decade past the paper: a 10^6-peer swarm.

    Identical protocol knobs to :func:`napa_scale` — same awareness
    weights, same HD channel, same cohort ticking — resized to one
    million remote peers.  Per-probe state stays one byte per peer (the
    awareness-code row) plus what the probe has touched, so the
    differential suites gate this profile's configuration at test scale
    while the CI mega-smoke job exercises the full size.
    """
    return replace(napa_scale(), name="mega-scale").scaled_swarm(1_000_000)


def random_baseline() -> AppProfile:
    """A network-oblivious strawman: uniform selection everywhere.

    Not one of the measured systems — the control the framework must score
    at ≈ no preference for every metric (used by tests and ablations).
    """
    return AppProfile(
        name="random",
        swarm_size=900,
        probe_as_fraction=0.35,
        tracker_initial=80,
        contact_interval_s=4.0,
        contact_batch=2,
        max_partners=25,
        partner_refresh_s=20.0,
        partner_weights=SelectionWeights(),
        provider_weights=SelectionWeights(),
        remote_demand=1.0,
        remote_weights=SelectionWeights(),
    )


#: Name → factory for every built-in profile.
PROFILES = {
    "pplive": pplive,
    "sopcast": sopcast,
    "tvants": tvants,
    "pplive-popular": pplive_popular,
    "napa-wine": napa_wine,
    "napa-scale": napa_scale,
    "mega-scale": mega_scale,
    "random": random_baseline,
}


def get_profile(name: str) -> AppProfile:
    """Instantiate a built-in profile by name."""
    try:
        return PROFILES[name]()
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown profile {name!r}; available: {sorted(PROFILES)}"
        ) from exc
