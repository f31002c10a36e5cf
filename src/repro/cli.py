"""Command-line interface.

Three subcommands mirror the measurement workflow:

* ``simulate``  — run one application experiment, save the trace bundle;
* ``analyze``   — apply the awareness framework to a saved bundle;
* ``campaign``  — run the full three-application campaign and print every
  table and figure of the paper plus the shape-check verdicts;
* ``localize``  — the network-friendliness extension: per-app traffic
  cost plus the aware-client what-if comparison;
* ``replicate`` — Table IV with mean ± std across seed replications;
* ``robustness`` — headline indices under increasing fault-injection
  severity (bursty loss, churn storms, sniffer outages, clock skew);
* ``stats``     — summarise a run manifest (stage timers, shard
  outcomes, engine/capture counters) written by ``campaign``.

Invoke as ``repro-p2ptv`` (console script) or ``python -m repro``.
The ``campaign``, ``replicate`` and ``robustness`` subcommands accept
``--workers N`` / ``--backend {serial,process,supervised}`` to fan
independent experiment shards out over a process pool (see
:mod:`repro.exec`), plus the supervision knobs ``--shard-timeout`` /
``--max-attempts`` / ``--quarantine-dir`` — naming any of them routes
execution through the supervised runtime
(:mod:`repro.exec.supervisor`: deadlines, crash isolation, retry with
backoff, poison-shard quarantine).
``simulate``, ``campaign``, ``replicate`` and ``robustness`` accept
``--scheduler {mesh-pull,rarest,edf,push}`` to run under an alternative
chunk-scheduling policy (see :mod:`repro.streaming.schedulers`; env
default: ``REPRO_SCHEDULER``).
Global ``--log-level`` / ``--log-format`` control the structured logger
(:mod:`repro.obs`; env: ``REPRO_LOG_LEVEL`` / ``REPRO_LOG_FORMAT``), and
``campaign`` writes a JSON run manifest next to its outputs
(``--manifest PATH``, ``--no-manifest`` to disable).
Errors from the reproduction stack (:class:`~repro.errors.ReproError`)
exit with status 2 and a one-line message instead of a traceback.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError
from repro.obs.log import LEVELS, configure
from repro.streaming.profiles import PROFILES


def _start_profiler(args: argparse.Namespace):
    """Start a cProfile session when ``--profile`` was given (else None)."""
    if getattr(args, "profile", None) is None:
        return None
    import cProfile

    profiler = cProfile.Profile()
    profiler.enable()
    return profiler


def _dump_profiler(profiler, args: argparse.Namespace, default_path: str) -> str | None:
    """Stop ``profiler`` and dump pstats; returns the dump path."""
    if profiler is None:
        return None
    profiler.disable()
    path = args.profile if args.profile != "auto" else default_path
    profiler.dump_stats(path)
    print(
        f"cProfile stats written to {path} "
        f"(inspect: python -m pstats {path})",
        file=sys.stderr,
    )
    return path


def _add_profile_flag(parser: argparse.ArgumentParser, where: str) -> None:
    parser.add_argument(
        "--profile", nargs="?", const="auto", default=None, metavar="PATH",
        help=f"profile the run under cProfile and dump pstats {where}",
    )


def _add_scheduler_flag(parser: argparse.ArgumentParser) -> None:
    # Validated by repro.streaming.schedulers.get_scheduler (not argparse
    # choices) so an unknown name exits 2 with the same ConfigurationError
    # message config-level validation produces.
    from repro.streaming.schedulers import SCHEDULER_NAMES

    parser.add_argument(
        "--scheduler", default=None, metavar="POLICY",
        help="chunk-scheduling policy: " + ", ".join(SCHEDULER_NAMES)
        + " (default: mesh-pull, or $REPRO_SCHEDULER)",
    )


def _scheduler(args: argparse.Namespace) -> str:
    """Resolve and validate the run's chunk-scheduling policy."""
    from repro.streaming.schedulers import default_scheduler, get_scheduler

    name = args.scheduler if args.scheduler is not None else default_scheduler()
    get_scheduler(name)  # unknown names raise ConfigurationError → exit 2
    return name


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro import run_experiment
    from repro.trace.store import TraceBundle, save_trace_bundle

    profiler = _start_profiler(args)
    result = run_experiment(
        args.app,
        duration_s=args.duration,
        seed=args.seed,
        scheduler=_scheduler(args),
    )
    _dump_profiler(profiler, args, args.out + ".pstats")
    bundle = TraceBundle.from_result(result)
    path = save_trace_bundle(args.out, bundle)
    print(
        f"{args.app}: {args.duration:.0f}s simulated, "
        f"{len(result.transfers)} transfers, {result.events_processed} events"
    )
    print(f"trace bundle written to {path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.framework import AwarenessAnalyzer
    from repro.experiments.table4 import Table4, cells_from_report
    from repro.heuristics.registry import IpRegistry
    from repro.report.tables import render_table4
    from repro.trace.flows import build_flow_table
    from repro.trace.store import load_trace_bundle, rebuild_world

    bundle = load_trace_bundle(args.trace)
    # Trace bundles are self-contained: the registry is rebuilt from the
    # per-host records (a GeoIP-style database), and the path model from
    # the recorded world seed (the world is a pure function of it).
    registry = IpRegistry.from_hosts(bundle.hosts)
    world = rebuild_world(bundle)
    flows = build_flow_table(
        bundle.transfers, bundle.signaling, bundle.hosts, world.paths
    )
    report = AwarenessAnalyzer(registry).analyze(flows)
    app = bundle.meta.get("profile", "trace")
    print(render_table4(Table4(cells=cells_from_report(app, report))))
    bias = report.self_bias_contributors["download"]
    print(
        f"\nself-induced bias (download contributors): "
        f"peers {bias.peer_percent:.1f}%, bytes {bias.byte_percent:.1f}%"
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments import (
        CampaignConfig,
        build_figure1,
        build_figure2,
        build_table1,
        build_table2,
        build_table3,
        build_table4,
        run_campaign,
    )
    from repro.report.compare import check_campaign_shape, render_checks
    from repro.report.figures import render_figure1, render_figure2
    from repro.report.tables import (
        render_table1,
        render_table2,
        render_table3,
        render_table4,
    )

    from repro.faults.plan import ImpairmentPlan

    impairment = None
    if args.impair > 0:
        impairment = ImpairmentPlan.preset(
            args.impair, seed=args.fault_seed, duration_s=args.duration
        )
    config = CampaignConfig(
        apps=tuple(args.apps),
        duration_s=args.duration,
        seed=args.seed,
        scale=args.scale,
        max_retries=args.max_retries,
        validate=args.validate,
        checkpoint_dir=args.checkpoint_dir,
        impairment=impairment,
        scheduler=_scheduler(args),
    )
    profiler = _start_profiler(args)
    campaign = run_campaign(
        config,
        workers=args.workers,
        backend=args.backend,
        policy=_policy_from_args(args),
    )
    # The profile dump lands next to the run manifest so the provenance
    # record and the performance evidence travel together.
    default_profile = "run_profile.pstats"
    if args.manifest is not None:
        from pathlib import Path

        default_profile = str(Path(args.manifest).with_suffix(".pstats"))
    profile_path = _dump_profiler(profiler, args, default_profile)
    if args.manifest is not None:
        from repro.obs.manifest import manifest_from_campaign, write_manifest

        command = getattr(args, "_argv", None) or ["campaign"]
        manifest = manifest_from_campaign(campaign, command=command)
        if profile_path is not None:
            manifest.artifacts["profile"] = str(profile_path)
        manifest_path = write_manifest(args.manifest, manifest)
        print(f"run manifest written to {manifest_path}", file=sys.stderr)
    print(render_table1(build_table1(campaign.testbed)))
    print()
    print(render_table2(build_table2(campaign)))
    print()
    print(render_table3(build_table3(campaign)))
    print()
    print(render_table4(build_table4(campaign)))
    print()
    print(render_figure1(build_figure1(campaign)))
    print()
    print(render_figure2(build_figure2(campaign)))
    if set(args.apps) >= {"pplive", "sopcast", "tvants"}:
        print()
        print(render_checks(check_campaign_shape(campaign)))
    if campaign.failures:
        print("\nerror ledger:", file=sys.stderr)
        for failure in campaign.failures:
            print(f"  {failure}", file=sys.stderr)
    if campaign.flags:
        print("\nexecution quality flags (campaign degraded):", file=sys.stderr)
        for flag in campaign.flags:
            print(f"  {flag}", file=sys.stderr)
    return 0 if not campaign.failed_apps else 1


def _cmd_localize(args: argparse.Namespace) -> int:
    from repro.experiments import CampaignConfig, run_campaign
    from repro.experiments.localization import build_localization, render_localization

    campaign = run_campaign(
        CampaignConfig(duration_s=args.duration, seed=args.seed, scale=args.scale)
    )
    report = build_localization(
        campaign,
        include_whatif=args.whatif,
        whatif_duration_s=min(args.duration, 180.0),
        whatif_seed=args.seed,
    )
    print(render_localization(report))
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    from repro.experiments import CampaignConfig
    from repro.experiments.multirun import (
        render_replicated_table4,
        run_replicated_campaign,
    )

    rep = run_replicated_campaign(
        CampaignConfig(
            duration_s=args.duration,
            scale=args.scale,
            scheduler=_scheduler(args),
        ),
        seeds=args.seeds,
        workers=args.workers,
        backend=args.backend,
        policy=_policy_from_args(args),
    )
    print(render_replicated_table4(rep))
    rates = rep.check_pass_rates()
    if rates:
        print("\nshape-check pass rates:")
        for name, rate in rates.items():
            print(f"  {rate:4.0%}  {name}")
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    from repro.experiments.robustness import render_robustness, sweep_robustness

    report = sweep_robustness(
        args.app,
        severities=tuple(args.severities),
        duration_s=args.duration,
        seed=args.seed,
        fault_seed=args.fault_seed,
        scale=args.scale,
        scheduler=_scheduler(args),
        workers=args.workers,
        backend=args.backend,
        policy=_policy_from_args(args),
    )
    print(render_robustness(report))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.manifest import (
        read_manifest,
        render_manifest_diff,
        render_manifest_summary,
    )

    if args.diff:
        if len(args.manifest) != 2:
            print("stats --diff takes exactly two manifests", file=sys.stderr)
            return 2
        a = read_manifest(args.manifest[0])
        b = read_manifest(args.manifest[1])
        print(render_manifest_diff(a, b))
        # Comparing runs of different configurations is almost always a
        # mistake (or the answer the caller scripted for) — signal it.
        return 0 if a.config_hash == b.config_hash else 1

    if len(args.manifest) != 1:
        print("stats takes one manifest (or two with --diff)", file=sys.stderr)
        return 2
    manifest = read_manifest(args.manifest[0])
    print(render_manifest_summary(manifest))
    return 0 if manifest.ok else 1


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    """Shared parallel-execution flags (campaign / replicate / robustness)."""
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="process-pool size (N > 1 implies --backend process)",
    )
    parser.add_argument(
        "--backend", choices=("serial", "process", "supervised"), default=None,
        help="shard executor backend (default: serial, or $REPRO_EXEC_BACKEND)",
    )
    parser.add_argument(
        "--shard-timeout", type=float, default=None, metavar="SECONDS",
        help="per-shard wall-clock deadline under supervision "
        "(default: derived from the shard duration)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="supervised executor attempts per shard before quarantine",
    )
    parser.add_argument(
        "--quarantine-dir", default=None, metavar="DIR",
        help="serialize poison-shard specs here for offline replay "
        "(python -m repro.exec.supervisor <spec>)",
    )


def _policy_from_args(args: argparse.Namespace):
    """A SupervisionPolicy when any supervision flag was given, else None.

    None keeps the plain backends; any explicit knob opts the run into
    the supervised runtime (:func:`repro.exec.backends.resolve_executor`
    upgrades the backend accordingly).
    """
    if (
        args.shard_timeout is None
        and args.max_attempts is None
        and args.quarantine_dir is None
        and args.backend != "supervised"
    ):
        return None
    from repro.exec.supervisor import SupervisionPolicy

    defaults = SupervisionPolicy()
    return SupervisionPolicy(
        shard_timeout_s=args.shard_timeout,
        max_attempts=(
            args.max_attempts if args.max_attempts is not None else defaults.max_attempts
        ),
        quarantine_dir=args.quarantine_dir,
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-p2ptv",
        description="Network awareness of P2P live streaming — IPDPS'09 reproduction",
    )
    parser.add_argument(
        "--log-level", choices=sorted(LEVELS, key=LEVELS.get), default=None,
        help="structured-log verbosity (default: warning, or $REPRO_LOG_LEVEL)",
    )
    parser.add_argument(
        "--log-format", choices=("human", "json"), default=None,
        help="structured-log output format (default: human, or $REPRO_LOG_FORMAT)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one application experiment")
    sim.add_argument("--app", choices=sorted(PROFILES), default="tvants")
    sim.add_argument("--duration", type=float, default=300.0, help="seconds")
    sim.add_argument("--seed", type=int, default=7)
    sim.add_argument("--out", default="trace.npz", help="output bundle path")
    _add_scheduler_flag(sim)
    _add_profile_flag(sim, "next to the trace bundle")
    sim.set_defaults(func=_cmd_simulate)

    ana = sub.add_parser("analyze", help="analyse a saved trace bundle")
    ana.add_argument("trace", help="path to a .npz trace bundle")
    ana.set_defaults(func=_cmd_analyze)

    camp = sub.add_parser("campaign", help="full campaign: all tables & figures")
    camp.add_argument(
        "--apps", nargs="+", default=["pplive", "sopcast", "tvants"],
        choices=sorted(PROFILES),
    )
    camp.add_argument("--duration", type=float, default=300.0)
    camp.add_argument("--seed", type=int, default=42)
    camp.add_argument("--scale", type=float, default=1.0)
    camp.add_argument(
        "--max-retries", type=int, default=0,
        help="retry failed simulations under reseeded engines",
    )
    camp.add_argument(
        "--validate", action="store_true",
        help="gate each run through the physics validator",
    )
    camp.add_argument(
        "--checkpoint-dir", default=None,
        help="save/resume per-app trace bundles here",
    )
    camp.add_argument(
        "--impair", type=float, default=0.0, metavar="SEVERITY",
        help="run under an impairment plan of this severity (0..1)",
    )
    camp.add_argument("--fault-seed", type=int, default=1)
    camp.add_argument(
        "--manifest", default="run_manifest.json", metavar="PATH",
        help="write the JSON run manifest here (stage timings, shard "
        "outcomes, engine counters)",
    )
    camp.add_argument(
        "--no-manifest", dest="manifest", action="store_const", const=None,
        help="skip writing the run manifest",
    )
    _add_scheduler_flag(camp)
    _add_profile_flag(camp, "next to the run manifest")
    _add_executor_flags(camp)
    camp.set_defaults(func=_cmd_campaign)

    loc = sub.add_parser("localize", help="network-friendliness extension")
    loc.add_argument("--duration", type=float, default=240.0)
    loc.add_argument("--seed", type=int, default=23)
    loc.add_argument("--scale", type=float, default=1.0)
    loc.add_argument(
        "--whatif", action="store_true",
        help="also run the sopcast-vs-napa-wine what-if comparison",
    )
    loc.set_defaults(func=_cmd_localize)

    rep = sub.add_parser("replicate", help="Table IV across seed replications")
    rep.add_argument("--duration", type=float, default=180.0)
    rep.add_argument("--scale", type=float, default=1.0)
    rep.add_argument("--seeds", type=int, nargs="+", default=[101, 202, 303])
    _add_scheduler_flag(rep)
    _add_executor_flags(rep)
    rep.set_defaults(func=_cmd_replicate)

    rob = sub.add_parser(
        "robustness", help="indices under increasing fault-injection severity"
    )
    rob.add_argument("--app", choices=sorted(PROFILES), default="tvants")
    rob.add_argument("--duration", type=float, default=300.0)
    rob.add_argument("--seed", type=int, default=7)
    rob.add_argument("--fault-seed", type=int, default=1)
    rob.add_argument("--scale", type=float, default=1.0)
    rob.add_argument(
        "--severities", type=float, nargs="+",
        default=[0.0, 0.25, 0.5, 0.75, 1.0],
    )
    _add_scheduler_flag(rob)
    _add_executor_flags(rob)
    rob.set_defaults(func=_cmd_robustness)

    stats = sub.add_parser("stats", help="summarise or diff campaign run manifests")
    stats.add_argument(
        "manifest", nargs="+", help="path to a run_manifest.json (two with --diff)"
    )
    stats.add_argument(
        "--diff",
        action="store_true",
        help="compare two manifests (config hash, stage timings, counters); "
        "exits nonzero when the config hashes differ",
    )
    stats.set_defaults(func=_cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point.

    Traps :class:`ReproError` — expected failures (bad trace file,
    inconsistent configuration) print one line to stderr and exit 2;
    anything else is a bug and keeps its traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None or args.log_format is not None:
        configure(level=args.log_level, fmt=args.log_format)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro-p2ptv: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a
        # well-behaved Unix filter.  Detach stdout so the interpreter's
        # shutdown flush doesn't raise a second time.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
