"""Machine-readable benchmark summaries (``BENCH_engine.json``).

``pytest-benchmark`` writes a verbose raw JSON (per-round timings, full
machine info).  This module distils it into the few numbers the project
actually tracks over time — wall time, events/s, transfers/s, wall time
per simulated minute — optionally annotated with a speedup against a
baseline raw file.  CI runs the engine benchmarks, writes the summary
with :func:`write_bench_summary`, and uploads it as an artifact so the
performance trajectory of the engine is recorded per commit; the repo
root carries the running history of optimisation passes.

Schema v2 makes the summary an *append-only log*: every entry carries the
``recorded`` timestamp of its run, ``--append`` keeps earlier entries and
adds the new run's, and appended entries report ``speedup_vs_previous``
against the most recent earlier entry of the same benchmark.  v1 files
(one run, file-level timestamp only) migrate transparently — each legacy
entry inherits the file-level ``datetime`` as its ``recorded`` stamp.

Every new entry is stamped with where it was measured: the git commit,
the CPU model and count, and the python and numpy versions, copied from
the raw file's ``commit_info`` and ``machine_info`` (the benchmarks'
conftest adds ``numpy_version`` to the latter).  Numbers from different
machines or toolchains are then told apart by the entries themselves.

``--check-against`` turns the tool into a regression gate: the new run's
events/s are compared per benchmark with the *latest* entry of a
committed summary, and any drop beyond ``--max-regression`` (default
20 %) fails with exit status 2 — the CI guard against performance
backsliding that plain unit tests cannot see.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_simulator.py \
        --benchmark-only --benchmark-json=bench_raw.json
    PYTHONPATH=src python -m repro.obs.bench bench_raw.json -o BENCH_engine.json \
        --append --check-against BENCH_engine.json

The summary derives throughput from the ``extra_info`` counters the
benchmarks attach (``events``, ``transfers``, ``simulated_s``); entries
without a counter simply omit the derived metric.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.errors import TraceError

#: Summary layout version; bump on incompatible changes.
BENCH_SCHEMA_VERSION = 2

#: Default tolerated events/s drop before the regression gate trips.
DEFAULT_MAX_REGRESSION = 0.20

#: Default tolerated fractional ``peak_rss_mb`` growth.  Wider than the
#: throughput tolerance: RSS quantises to whole pages and inherits
#: allocator noise, but a lazy-materialisation regression (score rows or
#: remote state going resident swarm-wide again) multiplies it — far
#: outside any plausible jitter.
DEFAULT_MAX_RSS_REGRESSION = 0.25


def _load_raw(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise TraceError(f"benchmark results not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: not a pytest-benchmark JSON: {exc}") from exc
    if not isinstance(data, dict) or "benchmarks" not in data:
        raise TraceError(f"{path}: missing 'benchmarks' key")
    return data


def load_summary(path: str | Path) -> dict:
    """Load (and migrate) an existing summary document."""
    path = Path(path)
    if not path.exists():
        raise TraceError(f"benchmark summary not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: not a benchmark summary: {exc}") from exc
    if not isinstance(doc, dict) or "benchmarks" not in doc:
        raise TraceError(f"{path}: missing 'benchmarks' key")
    return migrate_summary(doc)


def migrate_summary(doc: dict) -> dict:
    """Upgrade a summary document in place to the current schema.

    v1 carried one run with a single file-level ``datetime``; its entries
    inherit that stamp as their ``recorded`` time, which preserves the
    information v1 actually had — when that one run happened.
    """
    version = doc.get("schema_version", 1)
    if version == BENCH_SCHEMA_VERSION:
        return doc
    if version == 1:
        stamp = doc.get("datetime")
        for entry in doc["benchmarks"]:
            entry.setdefault("recorded", stamp)
        doc["schema_version"] = BENCH_SCHEMA_VERSION
        return doc
    raise TraceError(f"unsupported benchmark summary schema: {version}")


def latest_by_name(doc: dict) -> dict[str, dict]:
    """Most recent entry per benchmark name (last occurrence wins —
    entries are appended in run order)."""
    out: dict[str, dict] = {}
    for entry in doc.get("benchmarks", []):
        out[entry["name"]] = entry
    return out


def summarize_benchmark(bench: dict, baseline: dict | None = None) -> dict:
    """Summary entry for one pytest-benchmark record.

    ``baseline`` is the matching record from an earlier run; when given,
    the entry carries the baseline wall time and the speedup ratio.
    """
    stats = bench["stats"]
    extra = bench.get("extra_info", {})
    wall = float(stats["min"])
    entry: dict = {
        "name": bench["name"],
        "wall_s_min": wall,
        "wall_s_mean": float(stats["mean"]),
        "rounds": stats.get("rounds"),
    }
    events = extra.get("events")
    if events:
        entry["events"] = int(events)
        entry["events_per_s"] = events / wall
    transfers = extra.get("transfers")
    if transfers:
        entry["transfers"] = int(transfers)
        entry["transfers_per_s"] = transfers / wall
    simulated_s = extra.get("simulated_s")
    if simulated_s:
        entry["simulated_s"] = float(simulated_s)
        entry["wall_s_per_simulated_minute"] = wall * 60.0 / simulated_s
    # Scale-benchmark annotations: how large the swarm was, the records
    # an analysis bench aggregated and the flows it produced, and the
    # process RSS high-water mark (the bounded-memory record for the
    # paper-scale entries).
    for key in ("swarm", "records_in", "flows"):
        if key in extra:
            entry[key] = int(extra[key])
    if "peak_rss_mb" in extra:
        entry["peak_rss_mb"] = float(extra["peak_rss_mb"])
    if baseline is not None:
        base_wall = float(baseline["stats"]["min"])
        entry["baseline_wall_s_min"] = base_wall
        entry["speedup_vs_baseline"] = base_wall / wall
    return entry


def run_provenance(raw: dict) -> dict:
    """Commit, CPU and toolchain of a raw pytest-benchmark run.

    Fields the raw file lacks (no git checkout, no cpuinfo) are omitted.
    """
    machine = raw.get("machine_info") or {}
    cpu = machine.get("cpu") or {}
    provenance = {
        "commit": (raw.get("commit_info") or {}).get("id"),
        "cpu": cpu.get("brand_raw"),
        "cpu_count": cpu.get("count"),
        "python": machine.get("python_version"),
        "numpy": machine.get("numpy_version"),
    }
    return {k: v for k, v in provenance.items() if v is not None}


def summarize(raw: dict, baseline: dict | None = None, previous: dict | None = None) -> dict:
    """Summary document for a raw pytest-benchmark JSON.

    ``previous`` is an existing (migrated) summary document to append to:
    its entries are kept verbatim ahead of the new run's, and each new
    entry that has an earlier same-name entry reports
    ``speedup_vs_previous`` against it (wall-time ratio — > 1 is faster).
    """
    base_index = (
        {b["name"]: b for b in baseline.get("benchmarks", [])} if baseline else {}
    )
    prev_latest = latest_by_name(previous) if previous else {}
    stamp = raw.get("datetime")
    provenance = run_provenance(raw)
    entries = []
    for bench in raw["benchmarks"]:
        entry = summarize_benchmark(bench, base_index.get(bench["name"]))
        entry["recorded"] = stamp
        entry.update(provenance)
        prev = prev_latest.get(entry["name"])
        if prev is not None and prev.get("wall_s_min"):
            entry["speedup_vs_previous"] = prev["wall_s_min"] / entry["wall_s_min"]
        entries.append(entry)
    kept = list(previous["benchmarks"]) if previous else []
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "datetime": stamp,
        "benchmarks": kept + entries,
    }


def check_regressions(
    doc: dict,
    against: dict,
    max_regression: float = DEFAULT_MAX_REGRESSION,
    max_rss_regression: float = DEFAULT_MAX_RSS_REGRESSION,
) -> list[str]:
    """Compare the latest entries of ``doc`` against ``against``.

    Returns one human-readable failure line per benchmark whose events/s
    dropped by more than ``max_regression``, or whose ``peak_rss_mb``
    grew by more than ``max_rss_regression``, relative to the committed
    summary.  Benchmarks present on only one side, or without the
    compared figure, are skipped — each gate guards the metrics both
    summaries track (only the scale benchmarks record RSS, so the memory
    gate covers exactly the entries where memory is the claim).
    """
    failures = []
    reference = latest_by_name(against)
    for name, entry in latest_by_name(doc).items():
        ref = reference.get(name)
        if ref is None:
            continue
        new_eps = entry.get("events_per_s")
        ref_eps = ref.get("events_per_s")
        if new_eps and ref_eps:
            drop = 1.0 - new_eps / ref_eps
            if drop > max_regression:
                failures.append(
                    f"{name}: events/s fell {drop:.1%} "
                    f"({ref_eps:,.0f} -> {new_eps:,.0f}, "
                    f"tolerated {max_regression:.0%})"
                )
        new_rss = entry.get("peak_rss_mb")
        ref_rss = ref.get("peak_rss_mb")
        if new_rss and ref_rss:
            growth = new_rss / ref_rss - 1.0
            if growth > max_rss_regression:
                failures.append(
                    f"{name}: peak RSS grew {growth:.1%} "
                    f"({ref_rss:,.0f} MB -> {new_rss:,.0f} MB, "
                    f"tolerated {max_rss_regression:.0%})"
                )
    return failures


def write_bench_summary(
    results_path: str | Path,
    out_path: str | Path = "BENCH_engine.json",
    baseline_path: str | Path | None = None,
    append: bool = False,
) -> Path:
    """Summarise ``results_path`` into ``out_path``; returns the path.

    With ``append``, an existing summary at ``out_path`` is kept (after
    schema migration) and the new run's entries are added to its log.
    """
    raw = _load_raw(results_path)
    baseline = _load_raw(baseline_path) if baseline_path else None
    out = Path(out_path)
    previous = load_summary(out) if append and out.exists() else None
    doc = summarize(raw, baseline, previous)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.bench",
        description="Distil a pytest-benchmark JSON into BENCH_engine.json",
    )
    parser.add_argument("results", help="raw pytest-benchmark JSON")
    parser.add_argument(
        "-o", "--output", default="BENCH_engine.json", help="summary output path"
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="earlier raw pytest-benchmark JSON to compute speedups against",
    )
    parser.add_argument(
        "--append",
        action="store_true",
        help="keep existing entries in the output summary and append this run",
    )
    parser.add_argument(
        "--check-against",
        default=None,
        metavar="SUMMARY",
        help="committed summary to compare events/s against; regressions beyond "
        "--max-regression exit with status 2",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=DEFAULT_MAX_REGRESSION,
        help="tolerated fractional events/s drop for --check-against "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--max-rss-regression",
        type=float,
        default=DEFAULT_MAX_RSS_REGRESSION,
        help="tolerated fractional peak_rss_mb growth for --check-against "
        "(default %(default)s)",
    )
    args = parser.parse_args(argv)
    # Load the reference before writing: --check-against may name the very
    # file being (re)written, and the gate must compare against its
    # pre-run state, not the freshly appended one.
    against = load_summary(args.check_against) if args.check_against else None
    path = write_bench_summary(args.results, args.output, args.baseline, args.append)
    summary = json.loads(path.read_text())
    shown = latest_by_name(summary)
    for entry in shown.values():
        line = f"{entry['name']}: {entry['wall_s_min']:.3f}s"
        if "events_per_s" in entry:
            line += f", {entry['events_per_s']:,.0f} events/s"
        if "speedup_vs_baseline" in entry:
            line += f", {entry['speedup_vs_baseline']:.2f}x vs baseline"
        if "speedup_vs_previous" in entry:
            line += f", {entry['speedup_vs_previous']:.2f}x vs previous"
        print(line)
    print(f"wrote {path}")
    if against is not None:
        failures = check_regressions(
            summary, against, args.max_regression, args.max_rss_regression
        )
        for line in failures:
            print(f"REGRESSION {line}")
        if failures:
            return 2
        print("regression gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
