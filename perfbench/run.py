"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-campaign --seed 42 --seconds 30 --trace 0

Each iteration is a fresh ``python3 perfbench/workloads.py`` process (see
there for what is timed) simulating one of ``INPUTS`` seeds derived from
``--seed``, in turn.  No iteration starts that is expected to end past
``--seconds``, except to reach ``MIN_UNTRACED`` untraced iterations, or
``MIN_PAIRS`` untraced/traced pairs (one input per pair) with
``--trace 1``.  Every metric is the median over iterations.  Outputs are
checked on every iteration: ``validate_result`` must pass, the trace and
P/B-index digests of a run must agree across iterations on the same
input (traced or not), and must equal those in ``reference.json`` for
the inputs it holds (the default seed's).

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import E2E_UNITS, LAYER_UNITS, WORKLOADS  # noqa: E402

DEFAULT_SEED = 42
#: Distinct simulation inputs per run, derived from ``--seed``.
INPUTS = 3
SEED_STRIDE = 100
MIN_UNTRACED = INPUTS
MIN_PAIRS = 2
#: No iteration starts once this much wall time would be exceeded, so a
#: run ends within three minutes whatever ``--seconds`` asks for.
WALL_BUDGET_S = 150.0
REFERENCE = HERE / "reference.json"
OVERHEAD = ("trace.overhead_pct", "%")


def child_env(workload) -> dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob, plus the workload's."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(workload.env)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(workload, seed: int, traced: bool, timeout_s: float, duration_s=None) -> dict:
    """One iteration in a fresh process; ``{"error": ...}`` when it fails."""
    cmd = [
        sys.executable,
        str(HERE / "workloads.py"),
        f"--workload={workload.name}",
        f"--seed={seed}",
        f"--trace={int(traced)}",
    ]
    if duration_s is not None:
        cmd.append(f"--duration={duration_s}")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=child_env(workload),
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"iteration exceeded {timeout_s:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"iteration exited with code {proc.returncode}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "iteration printed no result"}


def machine_stamp(workload, seed: int, seconds: int, trace: int) -> dict:
    """Where and on what the numbers were taken."""
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        sha = proc.stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass

    def version(pkg: str) -> str:
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "git_sha": sha,
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "workload": workload.name,
        "seed": seed,
        "input_seeds": input_seeds(seed),
        "params": {
            "apps": list(workload.apps),
            "duration_s": workload.duration_s,
            "env": workload.env,
        },
        "seconds": seconds,
        "trace": trace,
    }


def input_seeds(seed: int) -> list[int]:
    """The simulation seeds of a run: ``INPUTS`` distinct inputs per workload seed.

    Iterations cycle through them, so a run's medians cover several
    inputs and one unusually cheap or costly input moves them little.
    """
    return [seed * SEED_STRIDE + k for k in range(INPUTS)]


def iterate(workload, seed: int, seconds: int, trace: int) -> list[dict]:
    """Run iterations (untraced, or untraced/traced pairs) for about ``seconds``."""
    unit = (False, True) if trace else (False,)
    minimum = MIN_PAIRS if trace else MIN_UNTRACED
    seeds = input_seeds(seed)
    results: list[dict] = []
    start = time.monotonic()
    units = 0
    while True:
        for traced in unit:
            timeout = WALL_BUDGET_S + 20.0 - (time.monotonic() - start)
            res = run_child(workload, seeds[units % INPUTS], traced, timeout)
            res.update(traced=traced, seed=seeds[units % INPUTS])
            results.append(res)
            if "error" in res:
                return results
        units += 1
        elapsed = time.monotonic() - start
        per_unit = elapsed / units
        if elapsed + per_unit > WALL_BUDGET_S:
            return results
        if units >= minimum and elapsed + per_unit > seconds:
            return results


def check(results: list[dict], workload) -> tuple[int, int, list[str]]:
    """Count attempted and failed runs; returns ``(attempted, failed, report lines)``."""
    reference = json.loads(REFERENCE.read_text()).get(workload.name, {})
    first: dict[tuple[int, str], tuple[str, str]] = {}
    attempted = failed = 0
    lines = []
    for i, res in enumerate(results):
        if "error" in res:
            attempted += len(workload.apps)
            failed += len(workload.apps)
            lines.append(f"iteration {i} (seed {res['seed']}): FAILED: {res['error']}")
            continue
        expected = reference.get(str(res["seed"]))
        for run in res["runs"]:
            attempted += 1
            problems = list(run["problems"])
            digests = (run["trace"], run["indices"])
            if first.setdefault((res["seed"], run["app"]), digests) != digests:
                problems.append("digests differ from an earlier iteration on the same input")
            ref = expected.get(run["app"]) if expected else None
            if ref is not None and digests != (ref["trace"], ref["indices"]):
                problems.append("digests differ from reference.json")
            failed += bool(problems)
            tag = "traced" if res["traced"] else "untraced"
            checked = "matches reference" if ref else "validated, no reference"
            verdict = f"ok, {checked}" if not problems else "FAILED: " + "; ".join(problems)
            lines.append(
                f"iteration {i} (seed {res['seed']}, {tag}) {run['app']}: "
                f"trace={run['trace']} indices={run['indices']} {verdict}"
            )
    return attempted, failed, lines


def medians(samples: list[dict], names) -> dict[str, float]:
    return {name: statistics.median(s[name] for s in samples) for name in names}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # iteration in flight instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    workload = WORKLOADS[args.workload]
    stamp = machine_stamp(workload, args.seed, args.seconds, args.trace)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    results = iterate(workload, args.seed, args.seconds, args.trace)
    attempted, failed, lines = check(results, workload)
    for line in lines:
        print(line)

    untraced = [r["e2e"] for r in results if "e2e" in r and not r["traced"]]
    traced = [r for r in results if "e2e" in r and r["traced"]]
    if not untraced or (args.trace and not traced):
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1
    e2e = medians(untraced, E2E_UNITS)
    print(f"{'metric':<32}{'value':>16}  unit   (median of {len(untraced)} untraced iterations)")
    for name, unit in E2E_UNITS.items():
        print(f"{name:<32}{e2e[name]:>16.6g}  {unit}")
    frac = failed / attempted
    print(f"{'failed_frac':<32}{frac:>16.6g}  ratio   ({failed} of {attempted} runs)")

    if args.trace:
        layers = medians([r["layers"] for r in traced], LAYER_UNITS)
        # Each pair simulates one input, so compare within pairs.
        slowdowns = [
            u["e2e"]["sim_rate"] / t["e2e"]["sim_rate"] - 1.0
            for u, t in zip(results[0::2], results[1::2])
            if "e2e" in u and "e2e" in t
        ]
        layers[OVERHEAD[0]] = statistics.median(slowdowns) * 100.0
        units = {**LAYER_UNITS, OVERHEAD[0]: OVERHEAD[1]}
        print(f"per-layer metrics (median of {len(traced)} traced iterations)")
        for name, unit in units.items():
            print(f"{name:<32}{layers[name]:>16.6g}  {unit}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
