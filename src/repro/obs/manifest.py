"""Run manifests: the provenance record written next to campaign outputs.

A manifest answers, after the fact, every question a failed or slow
campaign raises: what configuration ran (and its hash), under which
seeds, how each shard fared (checkpoint resume? retries? which stage
failed?), how long each pipeline stage took in wall and CPU time, and
what the engine/capture counters measured (events processed, peak
event-queue depth, records and bytes synthesized).  It is the
reproduction's equivalent of the per-capture accounting a passive
measurement study keeps for its traces.

Manifests are plain JSON with a schema version; :func:`write_manifest` /
:func:`read_manifest` round-trip losslessly (asserted by
``tests/obs/test_manifest.py``) and the ``repro-p2ptv stats`` subcommand
renders one as a summary table.  See ``docs/observability.md`` for the
full schema.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import TraceError
from repro.obs.telemetry import Telemetry

#: Manifest layout version; bump on incompatible changes.
MANIFEST_SCHEMA_VERSION = 1


def config_digest(config: dict) -> str:
    """Stable short hash of a JSON-able configuration dict.

    Canonical-JSON SHA-256, truncated to 12 hex chars — enough to tell
    two campaign configurations apart at a glance in a directory of
    manifests.
    """
    canonical = json.dumps(config, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


@dataclass
class RunManifest:
    """Everything recorded about one campaign run."""

    schema_version: int = MANIFEST_SCHEMA_VERSION
    kind: str = "campaign"
    created_unix: float = 0.0
    command: str | list | None = None
    config: dict = field(default_factory=dict)
    config_hash: str = ""
    seeds: dict = field(default_factory=dict)
    impairment: dict | None = None
    shards: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    telemetry: dict = field(default_factory=dict)
    #: Paths of auxiliary files produced alongside the run (e.g. the
    #: ``--profile`` cProfile dump), keyed by artifact kind.  Optional —
    #: absent in older manifests, ignored by older readers.
    artifacts: dict = field(default_factory=dict)
    #: Campaign-level quality flags (``exec-quarantined`` etc.) — present
    #: when the supervised runtime completed the campaign degraded.
    #: Additive field: absent in older manifests.
    quality_flags: list = field(default_factory=list)
    #: Process-level resource accounting (``peak_rss_mb``: the peak
    #: resident set across all shards, from ``getrusage`` at shard
    #: finalize).  Additive field: absent in older manifests and on
    #: platforms without the ``resource`` module; the CI mega-smoke job
    #: gates its memory ceiling on this entry.
    resources: dict = field(default_factory=dict)

    # ------------------------------------------------------------ transport
    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})

    @property
    def ok(self) -> bool:
        """Every shard completed and nothing hit the failure ledger."""
        return not self.failures and all(s.get("ok") for s in self.shards)


def _resources_summary(telemetry: Telemetry) -> dict:
    """Resource section from the run's peak-merged gauges.

    ``resources/*`` gauges are sampled by the shard worker (one
    ``getrusage`` per shard finalize) and peak-merged across shards, so
    the campaign-level peak is the run's true high-water mark regardless
    of backend.
    """
    out = {}
    for name, g in telemetry.gauges.items():
        if name.startswith("resources/") and g.samples:
            out[name.removeprefix("resources/")] = round(g.peak, 1)
    return out


def _impairment_summary(plan) -> dict | None:
    """JSON summary of an :class:`~repro.faults.plan.ImpairmentPlan`."""
    if plan is None:
        return None
    return {
        "seed": plan.seed,
        "is_noop": plan.is_noop,
        "loss": dataclasses.asdict(plan.loss) if plan.loss else None,
        "storms": len(plan.storms),
        "flash_crowds": len(plan.flash_crowds),
        "capture_outages": dataclasses.asdict(plan.capture) if plan.capture else None,
        "clock_skew": dataclasses.asdict(plan.clock) if plan.clock else None,
    }


def manifest_from_campaign(
    campaign, *, command: str | list | None = None
) -> RunManifest:
    """Build a manifest from a finished :class:`~repro.experiments.
    campaign.Campaign` (duck-typed to avoid an import cycle).

    Pure read-only accounting: walking a campaign twice produces the same
    manifest (modulo the ``created_unix`` stamp).
    """
    cfg = campaign.config
    config_dict = dataclasses.asdict(cfg)
    impairment = config_dict.pop("impairment", None)
    # The nested plan is summarised separately; hash covers the full dict.
    config_hash = config_digest({**config_dict, "impairment": impairment})
    # Normalise to JSON-native types (tuples → lists) so a manifest
    # written to disk reads back equal to the in-memory original.
    config_dict = json.loads(json.dumps(config_dict, default=str))

    supervision = getattr(campaign, "supervision", {}) or {}
    shards = []
    for i, app in enumerate(cfg.apps):
        run = campaign.runs.get(app)
        app_failures = [f for f in campaign.failures if f.app == app]
        tel = campaign.shard_telemetry.get(app)
        shards.append(
            {
                "app": app,
                "index": i,
                "base_seed": cfg.seed + i,
                "ok": run is not None,
                "from_checkpoint": bool(run.from_checkpoint) if run else False,
                "engine_seed": int(run.result.config.seed) if run else None,
                "retries": sum(1 for f in app_failures if f.stage == "simulate"),
                "failed_stages": sorted({f.stage for f in app_failures}),
                "telemetry": tel.as_dict() if tel else {},
                # Supervised-runtime record: per-attempt status, the
                # deadline the shard ran under, and the outcome class
                # (ok / quarantined / interrupted).  None on the plain
                # serial/process backends.
                "supervision": supervision.get(app),
            }
        )

    return RunManifest(
        created_unix=round(time.time(), 3),
        command=command,
        config=config_dict,
        config_hash=config_hash,
        seeds={
            "campaign": cfg.seed,
            "world": int(campaign.world.config.seed),
            "engine": {s["app"]: s["engine_seed"] for s in shards},
        },
        impairment=_impairment_summary(cfg.impairment),
        shards=shards,
        failures=[
            {
                "app": f.app,
                "stage": f.stage,
                "attempt": f.attempt,
                "seed": f.seed,
                "error": f.error,
            }
            for f in campaign.failures
        ],
        telemetry=campaign.telemetry.as_dict(),
        resources=_resources_summary(campaign.telemetry),
        quality_flags=[
            {"code": fl.code, "detail": fl.detail}
            for fl in getattr(campaign, "flags", ()) or ()
        ],
    )


def write_manifest(path: str | Path, manifest: RunManifest) -> Path:
    """Write a manifest as pretty-printed JSON; returns the final path."""
    path = Path(path)
    if path.suffix != ".json":
        path = path.with_suffix(path.suffix + ".json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n")
    return path


def read_manifest(path: str | Path) -> RunManifest:
    """Read a manifest written by :func:`write_manifest`."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"manifest not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: not a JSON manifest: {exc}") from exc
    if not isinstance(data, dict):
        raise TraceError(f"{path}: manifest must be a JSON object")
    version = data.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise TraceError(
            f"{path}: unsupported manifest schema {version!r} "
            f"(expected {MANIFEST_SCHEMA_VERSION})"
        )
    return RunManifest.from_dict(data)


def render_manifest_summary(manifest: RunManifest) -> str:
    """Human-readable summary (the ``repro-p2ptv stats`` output)."""
    from repro.report.tables import render_table

    tel = Telemetry.from_dict(manifest.telemetry)
    lines = [
        f"run manifest — {manifest.kind}, config {manifest.config_hash or '?'}"
        f", {'ok' if manifest.ok else 'FAILURES'}",
    ]

    shard_rows = []
    for s in manifest.shards:
        shard_tel = Telemetry.from_dict(s.get("telemetry", {}))
        wall = shard_tel.stage("shard").wall_s
        sup = s.get("supervision") or {}
        shard_rows.append(
            [
                s.get("app", "?"),
                "ok" if s.get("ok") else "FAILED",
                "yes" if s.get("from_checkpoint") else "no",
                str(s.get("engine_seed")),
                str(s.get("retries", 0)),
                str(len(sup["attempts"])) if sup.get("attempts") else "-",
                str(sup.get("outcome") or "-"),
                f"{wall:.2f}" if wall else "-",
            ]
        )
    if shard_rows:
        lines.append(
            render_table(
                [
                    "app", "status", "ckpt", "seed",
                    "retries", "exec att", "exec", "wall s",
                ],
                shard_rows,
                title="SHARDS",
            )
        )

    timer_rows = [
        [path, str(st.calls), f"{st.wall_s:.3f}", f"{st.cpu_s:.3f}"]
        for path, st in sorted(tel.timers.items())
    ]
    if timer_rows:
        lines.append(
            render_table(
                ["stage", "calls", "wall s", "cpu s"], timer_rows, title="STAGE TIMERS"
            )
        )

    counter_rows = [[name, str(v)] for name, v in sorted(tel.counters.items())]
    for name, g in sorted(tel.gauges.items()):
        counter_rows.append([f"{name} (peak)", f"{g.peak:g}"])
    if counter_rows:
        lines.append(render_table(["counter", "value"], counter_rows, title="COUNTERS"))

    if manifest.resources:
        resource_rows = [
            [name, f"{value:g}" if isinstance(value, (int, float)) else str(value)]
            for name, value in sorted(manifest.resources.items())
        ]
        lines.append(
            render_table(["resource", "peak"], resource_rows, title="RESOURCES")
        )

    if manifest.failures:
        lines.append("failures:")
        lines.extend(
            f"  {f.get('app')}/{f.get('stage')} (attempt {f.get('attempt')}, "
            f"seed {f.get('seed')}): {f.get('error')}"
            for f in manifest.failures
        )
    if manifest.quality_flags:
        lines.append("quality flags:")
        lines.extend(
            f"  [{fl.get('code')}] {fl.get('detail', '')}".rstrip()
            for fl in manifest.quality_flags
        )
    return "\n\n".join(lines)


def _flatten_config(config: dict, prefix: str = "") -> dict:
    """Flatten a nested config dict to dotted-path → value."""
    out: dict = {}
    for key, value in config.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            out.update(_flatten_config(value, path))
        else:
            out[path] = value
    return out


def render_manifest_diff(a: RunManifest, b: RunManifest) -> str:
    """Side-by-side comparison of two run manifests.

    Reports whether the configurations hash identically (callers that
    gate on comparability — e.g. ``repro-p2ptv stats --diff`` — exit
    nonzero on a mismatch), which config keys diverge, and how stage
    timings and engine counters moved between the runs.  A/B here means
    first/second argument order, typically baseline/candidate.
    """
    from repro.report.tables import render_table

    match = a.config_hash == b.config_hash
    lines = [
        f"manifest diff — A {a.config_hash or '?'} vs B {b.config_hash or '?'}: "
        f"{'configs match' if match else 'CONFIG MISMATCH'}"
    ]

    if not match:
        flat_a = _flatten_config(a.config)
        flat_b = _flatten_config(b.config)
        rows = [
            [key, repr(flat_a.get(key, "<absent>")), repr(flat_b.get(key, "<absent>"))]
            for key in sorted(set(flat_a) | set(flat_b))
            if flat_a.get(key, "<absent>") != flat_b.get(key, "<absent>")
        ]
        if rows:
            lines.append(render_table(["key", "A", "B"], rows, title="CONFIG CHANGES"))

    tel_a = Telemetry.from_dict(a.telemetry)
    tel_b = Telemetry.from_dict(b.telemetry)

    timer_rows = []
    for stage in sorted(set(tel_a.timers) | set(tel_b.timers)):
        wa = tel_a.timers[stage].wall_s if stage in tel_a.timers else None
        wb = tel_b.timers[stage].wall_s if stage in tel_b.timers else None
        if wa is not None and wb is not None and wb > 0:
            delta, speedup = f"{wb - wa:+.3f}", f"{wa / wb:.2f}x"
        else:
            delta, speedup = "-", "-"
        timer_rows.append(
            [
                stage,
                f"{wa:.3f}" if wa is not None else "-",
                f"{wb:.3f}" if wb is not None else "-",
                delta,
                speedup,
            ]
        )
    if timer_rows:
        lines.append(
            render_table(
                ["stage", "A wall s", "B wall s", "Δ", "A/B"],
                timer_rows,
                title="STAGE TIMERS",
            )
        )

    counter_rows = []
    names = sorted(set(tel_a.counters) | set(tel_b.counters))
    for name in names:
        ca, cb = tel_a.counters.get(name), tel_b.counters.get(name)
        delta = f"{cb - ca:+d}" if ca is not None and cb is not None else "-"
        counter_rows.append(
            [
                name,
                str(ca) if ca is not None else "-",
                str(cb) if cb is not None else "-",
                delta,
            ]
        )
    for name in sorted(set(tel_a.gauges) | set(tel_b.gauges)):
        pa = tel_a.gauges[name].peak if name in tel_a.gauges else None
        pb = tel_b.gauges[name].peak if name in tel_b.gauges else None
        delta = f"{pb - pa:+g}" if pa is not None and pb is not None else "-"
        counter_rows.append(
            [
                f"{name} (peak)",
                f"{pa:g}" if pa is not None else "-",
                f"{pb:g}" if pb is not None else "-",
                delta,
            ]
        )
    if counter_rows:
        lines.append(
            render_table(["counter", "A", "B", "Δ"], counter_rows, title="COUNTERS")
        )

    status_rows = [
        ["kind", a.kind, b.kind],
        ["status", "ok" if a.ok else "FAILURES", "ok" if b.ok else "FAILURES"],
        ["shards", str(len(a.shards)), str(len(b.shards))],
        ["failures", str(len(a.failures)), str(len(b.failures))],
    ]
    lines.append(render_table(["", "A", "B"], status_rows, title="RUN STATUS"))
    return "\n\n".join(lines)
