"""Shared benchmark fixtures.

The campaign simulation is the expensive part (minutes); it runs once per
benchmark session and every table/figure bench measures its *regeneration*
step (aggregation + analysis + rendering) on top of it, writing the
rendered artifact to ``benchmarks/output/`` for inspection alongside the
published values.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.experiments.campaign import Campaign, CampaignConfig, run_campaign
from repro.streaming.engine import EngineConfig, simulate
from repro.streaming.profiles import get_profile

#: Capture length for benchmark campaigns.  The preference indices are
#: stable well before the paper's 3600 s; 240 s keeps the one-off
#: simulation cost at a few minutes for all four experiments.
BENCH_DURATION_S = 240.0
BENCH_SEED = 42

OUTPUT_DIR = Path(__file__).parent / "output"


def pytest_benchmark_update_machine_info(config, machine_info):
    """Record the numpy version with every run (``repro.obs.bench`` stamps
    it onto each summary entry)."""
    machine_info["numpy_version"] = np.__version__


@pytest.fixture(scope="session")
def campaign() -> Campaign:
    """The three-application campaign at full profile scale."""
    return run_campaign(
        CampaignConfig(duration_s=BENCH_DURATION_S, seed=BENCH_SEED)
    )


@pytest.fixture(scope="session")
def pplive_popular_run():
    """The PPLive-Popular variant used by Fig. 2's fourth panel."""
    return simulate(
        get_profile("pplive-popular"),
        engine_config=EngineConfig(duration_s=BENCH_DURATION_S, seed=BENCH_SEED + 9),
    )


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def write_artifact(output_dir: Path, name: str, text: str) -> None:
    """Persist a rendered table/figure next to the benchmark results."""
    (output_dir / name).write_text(text + "\n")
