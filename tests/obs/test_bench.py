"""Benchmark summaries: BENCH_engine.json derivation from raw results."""

import json

import pytest

from repro.errors import TraceError
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    check_regressions,
    latest_by_name,
    load_summary,
    main,
    migrate_summary,
    run_provenance,
    summarize,
    summarize_benchmark,
    write_bench_summary,
)


def _raw(name="test_engine_one_minute[tvants]", wall=0.5, events=25000,
         transfers=40000, simulated_s=60.0):
    extra = {"events": events, "transfers": transfers}
    if simulated_s is not None:
        extra["simulated_s"] = simulated_s
    return {
        "datetime": "2026-08-06T00:00:00",
        "benchmarks": [
            {
                "name": name,
                "stats": {"min": wall, "mean": wall * 1.1, "rounds": 2},
                "extra_info": extra,
            }
        ],
    }


class TestSummarize:
    def test_throughput_metrics_derived(self):
        entry = summarize_benchmark(_raw()["benchmarks"][0])
        assert entry["wall_s_min"] == 0.5
        assert entry["events_per_s"] == pytest.approx(25000 / 0.5)
        assert entry["transfers_per_s"] == pytest.approx(40000 / 0.5)
        assert entry["wall_s_per_simulated_minute"] == pytest.approx(0.5)

    def test_scaling_bench_normalised_to_a_minute(self):
        entry = summarize_benchmark(
            _raw(wall=0.4, simulated_s=30.0)["benchmarks"][0]
        )
        assert entry["wall_s_per_simulated_minute"] == pytest.approx(0.8)

    def test_missing_extra_info_omits_derived_metrics(self):
        bench = _raw()["benchmarks"][0]
        bench["extra_info"] = {}
        entry = summarize_benchmark(bench)
        assert "events_per_s" not in entry
        assert "wall_s_per_simulated_minute" not in entry

    def test_analysis_counts_carried(self):
        bench = _raw(simulated_s=None)["benchmarks"][0]
        bench["extra_info"].update(swarm=180000, records_in=303437, flows=35568)
        entry = summarize_benchmark(bench)
        assert (entry["swarm"], entry["records_in"], entry["flows"]) == (180000, 303437, 35568)

    def test_baseline_speedup(self):
        base = _raw(wall=1.5)["benchmarks"][0]
        entry = summarize_benchmark(_raw(wall=0.5)["benchmarks"][0], base)
        assert entry["baseline_wall_s_min"] == 1.5
        assert entry["speedup_vs_baseline"] == pytest.approx(3.0)

    def test_document_shape(self):
        doc = summarize(_raw(), baseline=_raw(wall=1.0))
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION
        (entry,) = doc["benchmarks"]
        assert entry["speedup_vs_baseline"] == pytest.approx(2.0)

    def test_unmatched_baseline_name_ignored(self):
        doc = summarize(_raw(), baseline=_raw(name="other_bench"))
        assert "speedup_vs_baseline" not in doc["benchmarks"][0]


class TestProvenance:
    """Every new entry records the commit, CPU and toolchain it ran on."""

    MACHINE = {
        "python_version": "3.12.4",
        "numpy_version": "2.1.0",
        "cpu": {"brand_raw": "AMD EPYC 7763 64-Core Processor", "count": 4},
    }

    def _stamped(self, **raw_extra):
        return {**_raw(), **raw_extra}

    def test_new_entries_are_stamped(self):
        raw = self._stamped(
            machine_info=self.MACHINE, commit_info={"id": "abc123", "dirty": False}
        )
        (entry,) = summarize(raw)["benchmarks"]
        assert entry["commit"] == "abc123"
        assert entry["cpu"] == "AMD EPYC 7763 64-Core Processor"
        assert entry["cpu_count"] == 4
        assert entry["python"] == "3.12.4"
        assert entry["numpy"] == "2.1.0"

    def test_missing_fields_are_omitted(self):
        assert run_provenance(_raw()) == {}
        partial = self._stamped(machine_info={"python_version": "3.10.1", "cpu": {}})
        assert run_provenance(partial) == {"python": "3.10.1"}

    def test_earlier_entries_keep_their_own_stamp(self):
        old = summarize(
            self._stamped(machine_info=self.MACHINE, commit_info={"id": "old"})
        )
        new = self._stamped(
            machine_info={**self.MACHINE, "numpy_version": "2.2.0"},
            commit_info={"id": "new"},
        )
        doc = summarize(new, previous=old)
        assert [e["commit"] for e in doc["benchmarks"]] == ["old", "new"]
        assert [e["numpy"] for e in doc["benchmarks"]] == ["2.1.0", "2.2.0"]


class TestWriteSummary:
    def test_round_trip(self, tmp_path):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(_raw()))
        out = write_bench_summary(raw, tmp_path / "BENCH_engine.json")
        doc = json.loads(out.read_text())
        assert doc["benchmarks"][0]["name"] == "test_engine_one_minute[tvants]"

    def test_missing_input_raises(self, tmp_path):
        with pytest.raises(TraceError):
            write_bench_summary(tmp_path / "absent.json")

    def test_not_benchmark_json_raises(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(TraceError):
            write_bench_summary(bad)

    def test_cli_main(self, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        base = tmp_path / "base.json"
        raw.write_text(json.dumps(_raw(wall=0.5)))
        base.write_text(json.dumps(_raw(wall=1.5)))
        out = tmp_path / "BENCH_engine.json"
        rc = main([str(raw), "-o", str(out), "--baseline", str(base)])
        assert rc == 0
        assert out.exists()
        printed = capsys.readouterr().out
        assert "3.00x vs baseline" in printed


class TestAppendLog:
    def test_append_keeps_earlier_entries(self, tmp_path):
        out = tmp_path / "BENCH_engine.json"
        raw1 = tmp_path / "run1.json"
        raw2 = tmp_path / "run2.json"
        raw1.write_text(json.dumps(_raw(wall=1.0)))
        doc2 = _raw(wall=0.5)
        doc2["datetime"] = "2026-08-07T00:00:00"
        raw2.write_text(json.dumps(doc2))
        write_bench_summary(raw1, out)
        write_bench_summary(raw2, out, append=True)
        doc = json.loads(out.read_text())
        assert len(doc["benchmarks"]) == 2
        assert [e["wall_s_min"] for e in doc["benchmarks"]] == [1.0, 0.5]
        # Entries carry their own run timestamps.
        assert [e["recorded"] for e in doc["benchmarks"]] == [
            "2026-08-06T00:00:00",
            "2026-08-07T00:00:00",
        ]

    def test_speedup_vs_previous(self, tmp_path):
        out = tmp_path / "BENCH_engine.json"
        raw1 = tmp_path / "run1.json"
        raw2 = tmp_path / "run2.json"
        raw1.write_text(json.dumps(_raw(wall=1.0)))
        raw2.write_text(json.dumps(_raw(wall=0.5)))
        write_bench_summary(raw1, out)
        write_bench_summary(raw2, out, append=True)
        doc = json.loads(out.read_text())
        assert "speedup_vs_previous" not in doc["benchmarks"][0]
        assert doc["benchmarks"][1]["speedup_vs_previous"] == pytest.approx(2.0)

    def test_without_append_overwrites(self, tmp_path):
        out = tmp_path / "BENCH_engine.json"
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(_raw(wall=1.0)))
        write_bench_summary(raw, out)
        write_bench_summary(raw, out)
        doc = json.loads(out.read_text())
        assert len(doc["benchmarks"]) == 1

    def test_latest_by_name_last_wins(self):
        doc = {"benchmarks": [{"name": "a", "wall_s_min": 1.0},
                              {"name": "b", "wall_s_min": 2.0},
                              {"name": "a", "wall_s_min": 0.5}]}
        latest = latest_by_name(doc)
        assert latest["a"]["wall_s_min"] == 0.5
        assert latest["b"]["wall_s_min"] == 2.0


class TestMigration:
    def test_v1_entries_inherit_file_datetime(self):
        v1 = {
            "datetime": "2026-08-01T12:00:00",
            "benchmarks": [{"name": "a", "wall_s_min": 1.0}],
        }
        doc = migrate_summary(v1)
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION
        assert doc["benchmarks"][0]["recorded"] == "2026-08-01T12:00:00"

    def test_v2_untouched(self):
        v2 = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "benchmarks": [{"name": "a", "recorded": "x"}],
        }
        assert migrate_summary(v2) is v2

    def test_unknown_schema_rejected(self):
        with pytest.raises(TraceError):
            migrate_summary({"schema_version": 99, "benchmarks": []})

    def test_load_summary_migrates_v1_file(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "datetime": "2026-08-01T12:00:00",
            "benchmarks": [{"name": "a", "wall_s_min": 1.0}],
        }))
        doc = load_summary(path)
        assert doc["benchmarks"][0]["recorded"] == "2026-08-01T12:00:00"

    def test_load_summary_missing_raises(self, tmp_path):
        with pytest.raises(TraceError):
            load_summary(tmp_path / "absent.json")


class TestRegressionGate:
    def _summary(self, wall):
        raw = _raw(wall=wall)
        return summarize(raw)

    def test_within_tolerance_passes(self):
        # 25000 events fixed: halving events/s means doubling wall time.
        new, ref = self._summary(0.55), self._summary(0.5)
        assert check_regressions(new, ref, max_regression=0.20) == []

    def test_beyond_tolerance_fails(self):
        new, ref = self._summary(1.0), self._summary(0.5)
        failures = check_regressions(new, ref, max_regression=0.20)
        assert len(failures) == 1
        assert "events/s fell 50.0%" in failures[0]

    def test_unmatched_names_skipped(self):
        new = summarize(_raw(name="only_new", wall=9.0))
        ref = summarize(_raw(name="only_ref", wall=0.1))
        assert check_regressions(new, ref) == []

    def _rss_summary(self, rss_mb, wall=0.5):
        raw = _raw(wall=wall)
        raw["benchmarks"][0]["extra_info"]["peak_rss_mb"] = rss_mb
        return summarize(raw)

    def test_rss_within_tolerance_passes(self):
        new, ref = self._rss_summary(1100.0), self._rss_summary(1000.0)
        assert check_regressions(new, ref, max_rss_regression=0.25) == []

    def test_rss_growth_beyond_tolerance_fails(self):
        new, ref = self._rss_summary(2000.0), self._rss_summary(1000.0)
        failures = check_regressions(new, ref, max_rss_regression=0.25)
        assert len(failures) == 1
        assert "peak RSS grew 100.0%" in failures[0]

    def test_rss_gate_skips_entries_without_the_figure(self):
        # Only the scale benchmarks record RSS; plain throughput entries
        # must never trip the memory gate.
        new, ref = self._summary(0.5), self._rss_summary(1000.0)
        assert check_regressions(new, ref, max_rss_regression=0.0) == []

    def test_rss_and_throughput_gates_are_independent(self):
        new = self._rss_summary(2000.0, wall=1.0)
        ref = self._rss_summary(1000.0, wall=0.5)
        failures = check_regressions(
            new, ref, max_regression=0.20, max_rss_regression=0.25
        )
        assert len(failures) == 2

    def test_cli_max_rss_regression_flag(self, tmp_path):
        committed = tmp_path / "committed.json"
        raw_ref = _raw(wall=0.5)
        raw_ref["benchmarks"][0]["extra_info"]["peak_rss_mb"] = 1000.0
        ref_path = tmp_path / "ref_raw.json"
        ref_path.write_text(json.dumps(raw_ref))
        write_bench_summary(ref_path, committed)
        raw_new = _raw(wall=0.5)
        raw_new["benchmarks"][0]["extra_info"]["peak_rss_mb"] = 1400.0
        new_path = tmp_path / "new_raw.json"
        new_path.write_text(json.dumps(raw_new))
        out = tmp_path / "out.json"
        args = [str(new_path), "-o", str(out), "--check-against", str(committed)]
        assert main(args) == 2  # +40% RSS beyond the 25% default
        assert main(args + ["--max-rss-regression", "0.5"]) == 0

    def test_compares_latest_entries_only(self):
        # The reference log holds a slow old entry and a fast latest one;
        # the gate must use the latest.
        ref = summarize(_raw(wall=0.5), previous=summarize(_raw(wall=2.0)))
        new = self._summary(1.0)
        assert check_regressions(new, ref, max_regression=0.20)

    def test_cli_exit_codes(self, tmp_path, capsys):
        raw = tmp_path / "raw.json"
        raw.write_text(json.dumps(_raw(wall=1.0)))
        committed = tmp_path / "committed.json"
        fast = tmp_path / "fast_raw.json"
        fast.write_text(json.dumps(_raw(wall=0.5)))
        write_bench_summary(fast, committed)
        out = tmp_path / "out.json"
        rc = main([str(raw), "-o", str(out), "--check-against", str(committed)])
        assert rc == 2
        assert "REGRESSION" in capsys.readouterr().out
        rc = main([str(raw), "-o", str(out), "--check-against", str(committed),
                   "--max-regression", "0.6"])
        assert rc == 0
        assert "regression gate: ok" in capsys.readouterr().out

    def test_cli_check_against_output_file_uses_pre_run_state(self, tmp_path):
        # --check-against naming the output file must gate against the
        # committed (pre-run) state, not the freshly appended one.
        out = tmp_path / "BENCH_engine.json"
        fast = tmp_path / "fast_raw.json"
        slow = tmp_path / "slow_raw.json"
        fast.write_text(json.dumps(_raw(wall=0.5)))
        slow.write_text(json.dumps(_raw(wall=1.0)))
        write_bench_summary(fast, out)
        rc = main([str(slow), "-o", str(out), "--append",
                   "--check-against", str(out)])
        assert rc == 2
