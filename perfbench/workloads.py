"""The benchmark's workloads and the process that runs one of them once.

Run as a script, this module executes a single workload iteration in its
own process and prints one JSON object: the end-to-end metrics, the
per-layer metrics when traced, and the digests the parent checks::

    PYTHONPATH=src python3 perfbench/workloads.py --workload paper-campaign --seed 42 --trace 0

``perfbench/run.py`` starts one such process per iteration, because peak
RSS (``ru_maxrss``) is a high-water mark over a process's whole life.

Timing comes from spans (``perfbench/spans.py``) recorded around the
program's public entry points.  An untraced iteration wraps only the few
calls made once per simulation run that bound its phases (world build,
``simulate``, ``Engine.run``, ``build_flow_table``,
``AwarenessAnalyzer.analyze``); a traced iteration also wraps the
per-layer calls, the scheduler entry points among them, which fire once
per probe tick.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, union_length

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"


@dataclass(frozen=True)
class Workload:
    """One named workload: what runs, for how long, under which environment.

    Why each was chosen is recorded in ``BENCHMARK.json`` and ``README.md``.
    """

    name: str
    #: ``campaign`` runs ``run_campaign`` over ``apps``; ``cli-pair`` runs
    #: the ``simulate`` then ``analyze`` CLI pair through a trace bundle.
    kind: str
    apps: tuple[str, ...]
    duration_s: float
    env: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-campaign",
            "campaign",
            ("pplive", "sopcast", "tvants"),
            120.0,
        ),
        Workload(
            "napa-scale",
            "cli-pair",
            ("napa-scale",),
            180.0,
            {"REPRO_ENGINE": "soa"},
        ),
        Workload(
            "mega-scale",
            "campaign",
            ("mega-scale",),
            30.0,
            {"REPRO_ENGINE": "soa"},
        ),
    )
}

#: End-to-end metrics (untraced iterations) and their units.
E2E_UNITS = {
    "setup_s": "s",
    "simulate_s": "s",
    "analyze_s": "s",
    "sim_rate": "sim_s/s",
    "peak_rss_mb": "MB",
}

DISPATCH_KINDS = (
    "tick",
    "tick_cohort",
    "chunk_arrival",
    "remote_pull",
    "partner_refresh",
    "discovery",
    "demand_rebalance",
)

#: Per-layer metrics (traced iterations) and their units.
LAYER_UNITS = {
    "topology.build_s": "s",
    "population.build_s": "s",
    "population.peers": "count",
    "engine.init_s": "s",
    "engine.loop_s": "s",
    "engine.events": "count",
    "engine.us_per_event": "us",
    "engine.peak_queue_depth": "count",
    **{f"engine.dispatch.{k}": "count" for k in DISPATCH_KINDS},
    "scheduler.self_s": "s",
    "scheduler.calls": "count",
    "records.finalize_s": "s",
    "records.transfers": "count",
    "records.signaling_intervals": "count",
    "engine.run_rss_mb": "MB",
    "lazy.score_row_hit_ratio": "ratio",
    "lazy.score_row_lookups": "count",
    "lazy.score_row_misses": "count",
    "lazy.score_row_evictions": "count",
    "lazy.max_touched_busy": "count",
    "store.save_s": "s",
    "store.load_s": "s",
    "store.bundle_mb": "MB",
    "flows.build_s": "s",
    "flows.records_in": "count",
    "flows.rows": "count",
    "registry.build_s": "s",
    "framework.analyze_s": "s",
    "exec.overhead_s": "s",
}


# ----------------------------------------------------------------- memory
def current_rss_mb() -> float:
    """Resident set size now, from ``/proc/self/statm``."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def peak_rss_mb() -> float:
    """Process-lifetime RSS high-water mark (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class RssWatch:
    """Polls the RSS from a thread while one ``Engine.run`` call is open.

    ``ru_maxrss`` cannot be reset, so a run that stays below an earlier
    peak of the process leaves it unchanged; the poll gives that run's
    own high-water mark.
    """

    def __init__(self, interval_s: float = 0.01) -> None:
        self.interval_s = interval_s
        self.peak = current_rss_mb()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)
        self._thread.start()

    def _poll(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.peak = max(self.peak, current_rss_mb())

    def stop(self) -> float:
        self._stop.set()
        self._thread.join()
        return max(self.peak, current_rss_mb())


def _run_enter(span, args) -> None:
    span.data["rss0"] = current_rss_mb()
    span.data["maxrss0"] = peak_rss_mb()
    span.data["watch"] = RssWatch()


def _run_exit(span, result, args) -> None:
    peak = span.data.pop("watch").stop()
    maxrss = peak_rss_mb()
    if maxrss > span.data["maxrss0"]:
        peak = max(peak, maxrss)  # the process peak was reached inside this run
    span.data["rss_delta"] = peak - span.data["rss0"]


# ---------------------------------------------------------- instrumentation
def instrument(tracer: Tracer, traced: bool) -> None:
    """Wrap the program's public entry points; ``tracer.restore()`` undoes it."""
    import repro.exec.context as context_mod
    import repro.experiments.campaign as campaign_mod
    import repro.streaming.engine as engine_mod
    import repro.topology.testbed as testbed_mod
    import repro.trace.flows as flows_mod
    import repro.trace.store as store_mod
    from repro.core.framework import AwarenessAnalyzer
    from repro.heuristics.registry import IpRegistry
    from repro.streaming.events import EventQueue
    from repro.streaming.schedulers import SCHEDULERS, ChunkScheduler
    from repro.streaming.soa import ENGINES
    from repro.streaming.transport import SignalingBook, TransferRecorder
    from repro.topology.world import World

    counts = tracer.counts

    def count_flows(span, table, args) -> None:
        counts["flows.records_in"] += len(args[0]) + len(args[1])
        counts["flows.rows"] += len(table)

    # Phase boundaries: called a few times per simulation run.
    tracer.wrap(World, "__init__", "topology.world")
    for mod in (testbed_mod, context_mod, engine_mod):
        tracer.wrap(mod, "build_napa_wine_testbed", "topology.testbed")
    tracer.wrap(campaign_mod, "simulate", "simulate")
    tracer.wrap(
        engine_mod.Engine,
        "run",
        "engine.run",
        on_enter=_run_enter if traced else None,
        on_exit=_run_exit if traced else None,
    )
    for mod in (campaign_mod, flows_mod):
        on_exit = count_flows if traced else None
        tracer.wrap(mod, "build_flow_table", "flows.build", on_exit=on_exit)
    tracer.wrap(AwarenessAnalyzer, "analyze", "framework.analyze")
    if not traced:
        return

    def count_peers(span, population, args) -> None:
        counts["population.peers"] += len(population)

    def count_bundle(span, path, args) -> None:
        counts["store.bundle_bytes"] += Path(path).stat().st_size

    for fn in ("generate_population", "generate_sparse_swarm"):
        tracer.wrap(engine_mod, fn, "population.build", on_exit=count_peers)
    for cls in ENGINES.values():
        if "__init__" in cls.__dict__:
            tracer.wrap(cls, "__init__", "engine.init")
    tracer.wrap(EventQueue, "run_until", "engine.loop")
    for cls in (ChunkScheduler, *SCHEDULERS.values()):
        for hook in ("schedule_requests", "schedule_requests_soa", "on_chunk_received"):
            if hook in cls.__dict__:
                tracer.wrap(cls, hook, "scheduler")
    tracer.wrap(TransferRecorder, "finalize", "records.finalize")
    tracer.wrap(SignalingBook, "finalize", "records.finalize")
    tracer.wrap(store_mod, "save_trace_bundle", "store.save", on_exit=count_bundle)
    tracer.wrap(store_mod, "load_trace_bundle", "store.load")
    tracer.wrap(IpRegistry, "from_hosts", "registry.build")


# ------------------------------------------------------------------ runners
@dataclass
class RunOutput:
    """One simulation run of a workload iteration and what it produced."""

    app: str
    result: object = None
    report: object = None
    error: str = ""
    #: Digest of the transfers/signaling read back from the trace bundle.
    reloaded_digest: str = ""


def _run_campaign(wl: Workload, seed: int, duration_s: float, tracer: Tracer, work: Path):
    from repro.experiments.campaign import CampaignConfig, run_campaign

    campaign = run_campaign(CampaignConfig(apps=wl.apps, duration_s=duration_s, seed=seed))
    outputs = []
    for app in wl.apps:
        run = campaign.runs.get(app)
        failures = "; ".join(str(f) for f in campaign.failures_for(app))
        if run is None:
            outputs.append(RunOutput(app, error=failures or "no run"))
        else:
            outputs.append(RunOutput(app, run.result, run.report, failures))
    return outputs


def _run_cli_pair(wl: Workload, seed: int, duration_s: float, tracer: Tracer, work: Path):
    """``repro-p2ptv simulate`` then ``repro-p2ptv analyze``, as the CLI does them."""
    import repro
    import repro.trace.flows as flows_mod
    import repro.trace.store as store_mod
    from repro.core.framework import AwarenessAnalyzer
    from repro.heuristics.registry import IpRegistry

    (app,) = wl.apps
    with tracer.span("simulate"):
        result = repro.run_experiment(app, duration_s=duration_s, seed=seed)
    with tracer.span("bundle.write"):
        path = store_mod.save_trace_bundle(
            work / f"{app}.npz", store_mod.TraceBundle.from_result(result)
        )
    with tracer.span("analysis"):
        bundle = store_mod.load_trace_bundle(path)
        registry = IpRegistry.from_hosts(bundle.hosts)
        world = store_mod.rebuild_world(bundle)
        flows = flows_mod.build_flow_table(
            bundle.transfers, bundle.signaling, bundle.hosts, world.paths
        )
        report = AwarenessAnalyzer(registry).analyze(flows)
    reloaded = store_mod.trace_digest(bundle.transfers, bundle.signaling)
    return [RunOutput(app, result, report, reloaded_digest=reloaded)]


RUNNERS = {"campaign": _run_campaign, "cli-pair": _run_cli_pair}


# ------------------------------------------------------------------ checks
def index_digest(report) -> str:
    """SHA-256 over every P/B/P'/B' index of an awareness report."""
    h = hashlib.sha256()
    for metric in sorted(report.metrics):
        scores = report.metrics[metric]
        for direction in (scores.download, scores.upload):
            cells = (direction.P, direction.B, direction.P_prime, direction.B_prime)
            h.update(repr((metric, cells)).encode())
    return h.hexdigest()


def check_outputs(outputs: list[RunOutput], work: Path) -> list[dict]:
    """Validate every run and fingerprint its trace and indices.

    A run that did not go through a trace bundle (the campaigns) is
    written to one and read back here, after the timed workload, so every
    workload checks that its traces survive the trace store.
    """
    import repro.trace.store as store_mod
    from repro.validation import validate_result

    checked = []
    for out in outputs:
        entry = {"app": out.app, "trace": "", "indices": "", "problems": []}
        if out.error:
            entry["problems"].append(out.error)
        if out.result is not None:
            trace = store_mod.trace_digest(out.result.transfers, out.result.signaling)
            reloaded = out.reloaded_digest
            if not reloaded:
                bundle = store_mod.TraceBundle.from_result(out.result)
                path = store_mod.save_trace_bundle(work / f"check-{out.app}.npz", bundle)
                bundle = store_mod.load_trace_bundle(path)
                reloaded = store_mod.trace_digest(bundle.transfers, bundle.signaling)
            entry["trace"] = trace
            entry["indices"] = index_digest(out.report)
            entry["problems"] += [str(v) for v in validate_result(out.result)]
            if reloaded != trace:
                entry["problems"].append("trace bundle does not read back byte-identical")
        checked.append(entry)
    return checked


# ----------------------------------------------------------------- metrics
def phases(tracer: Tracer) -> dict[str, list[tuple[float, float]]]:
    """The intervals of an iteration's timeline that belong to each phase.

    setup: world/testbed build outside analysis, and each ``simulate``
    call up to its ``Engine.run``; simulate: ``Engine.run`` (finalisation
    included) plus the trace-bundle write; analyze: trace in hand to
    report, either one ``analysis`` block or, in a campaign shard, flow
    table build through ``AwarenessAnalyzer.analyze``.
    """
    analysis = [(s.start, s.end) for s in tracer.named("analysis")] or [
        (f.start, a.end)
        for f, a in zip(tracer.named("flows.build"), tracer.named("framework.analyze"))
    ]
    setup = [
        (s.start, s.end)
        for s in tracer.spans
        if s.name.startswith("topology.") and tracer.ancestor(s, "analysis") is None
    ]
    for run in tracer.named("engine.run"):
        sim = tracer.ancestor(run, "simulate")
        setup.append((sim.start if sim else run.start, run.start))
    simulate = [(s.start, s.end) for s in tracer.spans if s.name in ("engine.run", "bundle.write")]
    return {"setup": setup, "simulate": simulate, "analyze": analysis}


def end_to_end(tracer: Tracer, duration_s: float, rss_mb: float) -> dict:
    (workload,) = tracer.named("workload")
    spans = phases(tracer)
    simulated = duration_s * len(tracer.named("engine.run"))
    return {
        "setup_s": union_length(spans["setup"]),
        "simulate_s": union_length(spans["simulate"]),
        "analyze_s": union_length(spans["analyze"]),
        "sim_rate": simulated / workload.duration,
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer: Tracer, outputs: list[RunOutput]) -> dict:
    stats = [
        out.result.extras["engine_stats"]
        for out in outputs
        if out.result is not None and "engine_stats" in out.result.extras
    ]
    lazy = [s["lazy"] for s in stats if "lazy" in s]
    counts = tracer.counts
    (workload,) = tracer.named("workload")
    events = sum(s["events"] for s in stats)
    loop_s = tracer.covered("engine.loop")
    hits = sum(z["score_row_hits"] for z in lazy)
    lookups = hits + sum(z["score_row_misses"] for z in lazy)
    sched = tracer.named("scheduler")
    timed = [iv for ivs in phases(tracer).values() for iv in ivs]
    return {
        "topology.build_s": tracer.covered("topology.world", "topology.testbed"),
        "population.build_s": tracer.covered("population.build"),
        "population.peers": counts["population.peers"],
        "engine.init_s": tracer.covered("engine.init"),
        "engine.loop_s": loop_s,
        "engine.events": events,
        "engine.us_per_event": loop_s / events * 1e6 if events else 0.0,
        "engine.peak_queue_depth": max((s["peak_queue_depth"] for s in stats), default=0),
        **{
            f"engine.dispatch.{k}": sum(s["dispatch_by_kind"].get(k, 0) for s in stats)
            for k in DISPATCH_KINDS
        },
        "scheduler.self_s": tracer.self_time("scheduler"),
        "scheduler.calls": sum(1 for s in sched if tracer.ancestor(s, "scheduler") is None),
        "records.finalize_s": tracer.covered("records.finalize"),
        "records.transfers": sum(s["transfer_records"] for s in stats),
        "records.signaling_intervals": sum(s["signaling_intervals"] for s in stats),
        "engine.run_rss_mb": max(
            (s.data["rss_delta"] for s in tracer.named("engine.run") if "rss_delta" in s.data),
            default=0.0,
        ),
        "lazy.score_row_hit_ratio": hits / lookups if lookups else 0.0,
        "lazy.score_row_lookups": lookups,
        "lazy.score_row_misses": sum(z["score_row_misses"] for z in lazy),
        "lazy.score_row_evictions": sum(z["score_row_evictions"] for z in lazy),
        "lazy.max_touched_busy": max((z["max_touched_busy"] for z in lazy), default=0),
        "store.save_s": tracer.covered("store.save"),
        "store.load_s": tracer.covered("store.load"),
        "store.bundle_mb": counts["store.bundle_bytes"] / 2**20,
        "flows.build_s": tracer.covered("flows.build"),
        "flows.records_in": counts["flows.records_in"],
        "flows.rows": counts["flows.rows"],
        "registry.build_s": tracer.covered("registry.build"),
        "framework.analyze_s": tracer.covered("framework.analyze"),
        "exec.overhead_s": workload.duration - union_length(timed),
    }


# ------------------------------------------------------------------- entry
def run_iteration(wl: Workload, seed: int, traced: bool, duration_s: float) -> dict:
    """Run ``wl`` once in this process; returns metrics and checked outputs."""
    tracer = Tracer()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK_DIR))
    instrument(tracer, traced)
    try:
        with tracer.span("workload"):
            outputs = RUNNERS[wl.kind](wl, seed, duration_s, tracer, work)
        rss_mb = peak_rss_mb()
        runs = check_outputs(outputs, work)
    finally:
        tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    return {
        "runs": runs,
        "e2e": end_to_end(tracer, duration_s, rss_mb),
        "layers": per_layer(tracer, outputs) if traced else {},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--duration", type=float, default=None, help="override the simulated seconds per run"
    )
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    out = run_iteration(wl, args.seed, bool(args.trace), args.duration or wl.duration_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
