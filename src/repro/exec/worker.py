"""The shard worker: one application experiment, end to end.

:func:`run_shard` is the whole per-app pipeline the serial campaign
runner used to inline — checkpoint resume, simulate with
retry-with-reseed, impairment, the validation gate, flow aggregation,
analysis, checkpoint save — expressed as a pure-ish function
``ShardSpec → ShardOutcome`` so any executor backend can run it
anywhere.  All campaign imports are deferred to call time:
:mod:`repro.experiments.campaign` imports this package, and the worker
deliberately resolves ``simulate``/checkpoint helpers *through* the
campaign module so test doubles installed there keep working (under the
process backend they propagate to fork-started workers).

Failure semantics match the serial runner exactly: every trapped error
becomes a :class:`CampaignFailure` on the outcome, in pipeline order
(checkpoint → simulate attempts → validate → analyze → checkpoint save).
Checkpoint-stage entries always record the shard's *base* seed
(``key.base_seed``) — never a retry-reseeded or checkpoint-recovered
engine seed — so the ledger identifies the shard deterministically
regardless of how many attempts it took (the seed-unification fix).
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.errors import ReproError
from repro.exec.context import shard_context
from repro.heuristics.registry import IpRegistry
from repro.exec.shards import ShardOutcome, ShardSpec
from repro.obs.log import get_logger
from repro.obs.telemetry import Telemetry
from repro.streaming.engine import EngineConfig
from repro.streaming.profiles import get_profile
from repro.trace.store import TraceBundle, trace_digest

_log = get_logger("exec.worker")

#: engine_stats keys copied into shard telemetry counters (additive
#: across shards) vs. gauges (merged by peak).
_ENGINE_COUNTERS = (
    "events",
    "events_scheduled",
    "transfer_records",
    "signaling_intervals",
    "bytes_recorded",
    "video_records",
    "video_bytes",
)
#: engine_stats sub-dicts of per-event-kind counts, absorbed as one
#: counter per kind (``engine/dispatch/tick`` etc.).
_ENGINE_KIND_DICTS = ("dispatch_by_kind", "schedule_by_kind")
_ENGINE_GAUGES = ("peak_queue_depth",)

try:  # POSIX-only stdlib module; absent on some platforms
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    _resource = None


def _peak_rss_mb() -> float | None:
    """Process-lifetime peak resident set in MB (None where unsupported).

    ``ru_maxrss`` is a high-water mark, so under the in-process backends
    later shards can only report equal-or-larger values — exactly the
    peak-merge semantics the campaign gauge applies across shards.
    """
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # Kilobytes on Linux, bytes on macOS.
    if sys.platform == "darwin":
        return peak / (1024 * 1024)
    return peak / 1024


def _absorb_engine_stats(telemetry: Telemetry, result) -> None:
    """Copy the engine's post-run stats into a shard's telemetry."""
    stats = (getattr(result, "extras", None) or {}).get("engine_stats")
    if not stats:
        return
    for name in _ENGINE_COUNTERS:
        if name in stats:
            telemetry.count(f"engine/{name}", int(stats[name]))
    for name in _ENGINE_KIND_DICTS:
        prefix = f"engine/{name.removesuffix('_by_kind')}"
        for kind, count in (stats.get(name) or {}).items():
            telemetry.count(f"{prefix}/{kind}", int(count))
    for name in _ENGINE_GAUGES:
        if name in stats:
            telemetry.gauge(f"engine/{name}", float(stats[name]))


def _shard_profile(spec: ShardSpec):
    profile = get_profile(spec.key.app)
    if spec.config.scale != 1.0:
        profile = profile.scaled(spec.config.scale)
    scheduler = getattr(spec.config, "scheduler", None)
    if scheduler and scheduler != profile.scheduler:
        profile = replace(profile, scheduler=scheduler)
    return profile


def _simulate_shard(
    spec: ShardSpec, world, testbed, outcome, failures, *, telemetry=None
) -> object | None:
    """Simulate with retry-with-reseed, impairment and the validation gate."""
    import repro.experiments.campaign as campaign_mod
    from repro.faults.plan import impair_result
    from repro.validation import validate_result

    cfg = spec.config
    key = spec.key
    profile = _shard_profile(spec)

    plan = None
    if cfg.impairment is not None and not cfg.impairment.is_noop:
        plan = cfg.impairment.with_seed(cfg.impairment.seed + key.app_index)

    # Executor-level payload retries shift the whole stream: attempt N of
    # a reseeded shard draws the seed attempt (N + offset) would have.
    offset = spec.attempt_offset
    for attempt in range(cfg.max_retries + 1):
        seed = key.seed_for(attempt + offset)
        engine_config = EngineConfig(duration_s=cfg.duration_s, seed=seed)
        if plan is not None:
            engine_config = plan.engine_config(engine_config)
        if telemetry is not None:
            telemetry.count("shard/simulate_attempts")
            if attempt:
                telemetry.count("shard/retries")
        try:
            result = campaign_mod.simulate(
                profile,
                world=world,
                testbed=testbed,
                engine_config=engine_config,
            )
        except ReproError as exc:
            _log.warning(
                "simulate-failed",
                shard=str(key),
                attempt=attempt,
                seed=seed,
                error=str(exc),
            )
            failures.append(
                campaign_mod.CampaignFailure(key.app, "simulate", attempt, seed, str(exc))
            )
            continue
        if plan is not None:
            result, log = impair_result(result, plan)
            outcome.impairment_log = log
        if cfg.validate:
            violations = validate_result(result)
            if violations:
                failures.append(
                    campaign_mod.CampaignFailure(
                        key.app,
                        "validate",
                        attempt,
                        seed,
                        "; ".join(str(v) for v in violations),
                    )
                )
                return None  # deterministic — retrying cannot help
        return result
    return None


def run_shard(spec: ShardSpec) -> ShardOutcome:
    """Execute one shard and return its picklable outcome.

    Never raises on a per-shard :class:`ReproError`; everything trapped
    lands in ``outcome.failures`` for the parent's ledger merge.
    """
    import repro.experiments.campaign as campaign_mod

    cfg = spec.config
    key = spec.key
    tel = Telemetry()
    outcome = ShardOutcome(key=key, telemetry=tel)
    failures: list = []
    _log.debug("shard-start", shard=str(key))
    with tel.timer("shard"):
        world, testbed, _ = shard_context()
        profile = _shard_profile(spec)

        result = None
        if cfg.checkpoint_dir and campaign_mod._checkpoint_path(cfg, key.app).exists():
            try:
                with tel.timer("checkpoint_load"):
                    result = campaign_mod._load_checkpoint(
                        cfg, key.app, world, testbed, profile
                    )
            except ReproError as exc:
                failures.append(
                    campaign_mod.CampaignFailure(
                        key.app, "checkpoint", 0, key.base_seed, str(exc)
                    )
                )
        from_checkpoint = result is not None
        if result is None:
            with tel.timer("simulate"):
                result = _simulate_shard(
                    spec, world, testbed, outcome, failures, telemetry=tel
                )
        if result is None:
            outcome.failures = tuple(failures)
            _log.warning("shard-failed", shard=str(key), failures=len(failures))
            return outcome
        _absorb_engine_stats(tel, result)

        try:
            with tel.timer("analyze"):
                flows = campaign_mod.build_flow_table(
                    result.transfers,
                    result.signaling,
                    result.hosts,
                    world.paths,
                    telemetry=tel,
                )
                # Resolve addresses against the experiment's own host
                # table (the GeoIP-style exact-address DB) rather than
                # the pristine prefix plan: swarm placement may attach
                # overflow prefixes the pristine registry has never seen
                # (mega-scale populations exhaust per-AS /16s), and a
                # checkpoint-resumed shard never replays that allocation
                # at all.  Same AS/CC ground truth either way.
                registry = IpRegistry.from_hosts(
                    result.hosts, subnet_prefixlen=world.config.subnet_prefixlen
                )
                report = campaign_mod.AwarenessAnalyzer(registry).analyze(
                    flows, telemetry=tel
                )
        except ReproError as exc:
            failures.append(
                campaign_mod.CampaignFailure(
                    key.app, "analyze", 0, int(result.config.seed), str(exc)
                )
            )
            outcome.failures = tuple(failures)
            _log.warning("shard-failed", shard=str(key), failures=len(failures))
            return outcome

        if cfg.checkpoint_dir and not from_checkpoint:
            try:
                with tel.timer("checkpoint_save"):
                    campaign_mod._save_checkpoint(cfg, key.app, result)
            except (ReproError, OSError) as exc:
                failures.append(
                    campaign_mod.CampaignFailure(
                        key.app, "checkpoint", 0, key.base_seed, str(exc)
                    )
                )

        outcome.flows = flows
        outcome.report = report
        outcome.from_checkpoint = from_checkpoint
        outcome.engine_seed = int(result.config.seed)
        # Integrity seal: recorded here, recomputed by the supervised
        # runtime after the payload crosses the process boundary.
        outcome.content_digest = trace_digest(result.transfers, result.signaling)
        if spec.keep_result:
            outcome.result = result
        else:
            # Process boundary: ship plain arrays + metadata.  Impaired engine
            # configs hold closures (churn transforms), so the live result
            # cannot cross; the parent rebuilds an equivalent one.
            outcome.bundle = TraceBundle.from_result(result)
        outcome.failures = tuple(failures)
        rss = _peak_rss_mb()
        if rss is not None:
            tel.gauge("resources/peak_rss_mb", rss)
    _log.info(
        "shard-done",
        shard=str(key),
        ok=outcome.ok,
        from_checkpoint=outcome.from_checkpoint,
        wall_s=round(tel.stage("shard").wall_s, 6),
    )
    return outcome
