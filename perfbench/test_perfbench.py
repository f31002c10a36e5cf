"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They check the harness, not the program: span arithmetic, metric naming
and printing, the output checks, and that tracing leaves the simulated
traces untouched.
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Span, Tracer, union_length  # noqa: E402
from workloads import E2E_UNITS, LAYER_UNITS, WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_union_length_counts_overlaps_once():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert union_length([]) == 0


def test_self_time_on_synthetic_span_tree():
    tracer = Tracer()
    tracer.spans = [
        Span("root", -1, 0.0, 10.0),
        Span("a", 0, 1.0, 4.0),
        Span("b", 0, 3.0, 6.0),  # overlaps its sibling: covered once
        Span("leaf", 1, 2.0, 3.0),
        Span("c", 0, 9.0, 12.0),  # runs past its parent: clipped
    ]
    assert tracer.self_times() == [10 - 6, 3 - 1, 3, 1, 3]
    assert tracer.self_time("a") == 2
    assert tracer.covered("a", "b") == 5
    assert tracer.ancestor(tracer.spans[3], "root") is tracer.spans[0]
    assert tracer.ancestor(tracer.spans[3], "b") is None


def test_wrap_records_nested_spans_and_restores():
    class Layer:
        def outer(self, x):
            return self.inner(x) + 1

        def inner(self, x):
            return x * 2

        @classmethod
        def build(cls, n):
            return [cls] * n

    originals = dict(Layer.__dict__)
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    seen = []
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner", on_exit=lambda span, res, args: seen.append(res))
    tracer.wrap(Layer, "build", "build")
    assert Layer().outer(3) == 7
    assert Layer.build(2) == [Layer, Layer]
    tree = [(s.name, s.parent) for s in tracer.spans]
    assert tree == [("outer", -1), ("inner", 0), ("build", -1)]
    assert seen == [6]
    assert tracer.self_time("outer") == tracer.spans[0].duration - tracer.spans[1].duration
    tracer.restore()
    assert all(Layer.__dict__[k] is v for k, v in originals.items())


def test_metric_names_and_units_match_benchmark_json():
    for name, unit in {**E2E_UNITS, **LAYER_UNITS, run.OVERHEAD[0]: run.OVERHEAD[1]}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        **LAYER_UNITS,
        run.OVERHEAD[0]: run.OVERHEAD[1],
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def _fake_iteration(traced, trace_digest="t" * 64, seed=900):
    runs = [
        {"app": app, "trace": trace_digest, "indices": "i" * 64, "problems": []}
        for app in WORKLOADS["paper-campaign"].apps
    ]
    e2e = {name: 1.5 for name in E2E_UNITS}
    layers = {name: 2.0 for name in LAYER_UNITS} if traced else {}
    return {"runs": runs, "e2e": e2e, "layers": layers, "traced": traced, "seed": seed}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(monkeypatch, trace):
    fake = [_fake_iteration(False), _fake_iteration(True)] if trace else [_fake_iteration(False)]
    monkeypatch.setattr(run, "iterate", lambda *a: fake)
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(["--workload=paper-campaign", "--seed=9", f"--trace={trace}"]) == 0
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 3 * len(fake) and result["failed"] == 0
    names = [m["name"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert any(ln.split()[:1] == [name] and ln.split()[2] == metric["unit"] for ln in lines)
    assert any(ln.startswith("failed_frac") and "ratio" in ln for ln in lines)
    stamp = json.loads(next(ln for ln in lines if ln.startswith("stamp "))[6:])
    assert {"git_sha", "cpu_model", "nproc", "numpy", "scipy", "seed", "params"} <= set(stamp)


def test_digest_mismatch_counts_as_failed(monkeypatch, tmp_path):
    results = [
        _fake_iteration(False),
        _fake_iteration(False, trace_digest="x" * 64, seed=901),
        _fake_iteration(True, trace_digest="x" * 64),
    ]
    reference = tmp_path / "reference.json"
    pplive = {"trace": "x" * 64, "indices": "j" * 64}
    reference.write_text(json.dumps({"paper-campaign": {"901": {"pplive": pplive}}}))
    monkeypatch.setattr(run, "REFERENCE", reference)
    attempted, failed, lines = run.check(results, WORKLOADS["paper-campaign"])
    assert (attempted, failed) == (9, 4)
    assert sum("from an earlier iteration on the same input" in ln for ln in lines) == 3
    assert sum("differ from reference.json" in ln for ln in lines) == 1


@pytest.mark.parametrize("name", ["paper-campaign", "napa-scale"])
def test_tracing_does_not_change_outputs(name):
    workload = WORKLOADS[name]
    plain = run.run_child(workload, 5, False, 170, duration_s=10.0)
    traced = run.run_child(workload, 5, True, 170, duration_s=10.0)
    assert "error" not in plain and "error" not in traced
    assert plain["runs"] == traced["runs"]
    assert all(r["trace"] and not r["problems"] for r in plain["runs"])
    assert traced["layers"]["engine.events"] > 0
