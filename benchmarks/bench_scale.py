"""Performance benchmarks: the engine cores at paper swarm scale.

The napa-scale profile runs the measured CCTV-1 population (1.8×10^5
concurrent peers) on the sparse column swarm with alias discovery,
cohort ticking and the 1 Mbps HD channel.  Two benchmark families track
it:

* ``test_engine_crossover_throughput`` — the same profile resized to
  4×10^3 and 4×10^4 peers, under both cores: the crossover axis the
  performance docs tabulate (the object core wins small swarms, the
  batched SoA kernels win at scale).
* ``test_engine_scale_throughput`` — the full 1.8×10^5-peer swarm.  The
  paired object/soa entries in ``BENCH_engine.json`` are the acceptance
  record for the SoA core's scale advantage, and ``peak_rss_mb`` pins
  the bounded-memory claim (the sparse swarm holds columns, not an
  object per peer).

A third family rides the lazy peer-state layer:

* ``test_engine_scale_lazy_throughput`` — napa-scale (1.8×10^5) on the
  SoA core with lazy peer state: the paired entry against the
  eager ``test_engine_scale_throughput[soa]`` record.  The committed
  pair is the acceptance record that lazy materialisation costs ≤10 %
  wall-clock at the paper's measured scale, and the CI gate holds the
  lazy entry to that line (``--max-regression 0.10``).
* ``test_engine_mega_throughput`` — the mega-scale swarm at 5×10^5 and
  10^6 peers, eager vs lazy (``REPRO_SCALE_MEGA=1`` to enable): the
  memory crossover the performance docs tabulate.

napa-scale runs on the SoA core with eager peer state by itself, and
mega-scale with lazy; the other side of each pair is forced through the
test seam (:func:`tests.seams.forced`), so every entry keeps comparing
like with like.

Wall-clock here includes world construction and population generation
(both cheap next to the event loop at these horizons), matching the
other engine benchmarks.

``peak_rss_mb`` reads ``ru_maxrss`` — a *process-lifetime* high-water
mark.  Record each scale/peer-state cell in its own pytest process
(``-k`` one bench per invocation); cells sharing a process inherit the
largest earlier footprint and over-report.
"""

import os
import resource

import pytest

from repro.streaming.engine import EngineConfig, simulate
from repro.streaming.profiles import get_profile
from repro.streaming.soa import ENGINES

from tests.seams import forced

#: Short horizons keep the full-scale pair affordable (the 1.8×10^5-peer
#: object run costs tens of seconds per simulated five minutes).
CROSSOVER_DURATION_S = 120.0
SCALE_DURATION_S = 300.0
#: The mega swarms amortise less: one simulated minute is enough to pin
#: throughput and residency while keeping the 10^6-peer cells tractable.
MEGA_DURATION_S = 60.0
SCALE_SEED = 42


def _peak_rss_mb() -> float:
    """Process high-water RSS in MiB (ru_maxrss is kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("swarm", [4000, 40_000])
def test_engine_crossover_throughput(benchmark, swarm, engine):
    """napa-scale resized across the object/SoA crossover region."""
    profile = get_profile("napa-scale").scaled_swarm(swarm)
    config = EngineConfig(duration_s=CROSSOVER_DURATION_S, seed=SCALE_SEED)

    def run():
        return simulate(profile, engine_config=config)

    with forced(engine=engine):
        result = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    benchmark.extra_info["engine"] = result.extras["engine_mode"]
    benchmark.extra_info["swarm"] = swarm
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["transfers"] = len(result.transfers)
    benchmark.extra_info["simulated_s"] = CROSSOVER_DURATION_S


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_scale_throughput(benchmark, engine):
    """Both cores on the full paper-scale swarm (1.8×10^5 peers)."""
    profile = get_profile("napa-scale")
    config = EngineConfig(duration_s=SCALE_DURATION_S, seed=SCALE_SEED)

    def run():
        return simulate(profile, engine_config=config)

    with forced(engine=engine, peer_state="eager"):
        result = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    benchmark.extra_info["engine"] = result.extras["engine_mode"]
    benchmark.extra_info["swarm"] = profile.swarm_size
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["transfers"] = len(result.transfers)
    benchmark.extra_info["simulated_s"] = SCALE_DURATION_S
    benchmark.extra_info["peak_rss_mb"] = round(_peak_rss_mb(), 1)


def test_engine_scale_lazy_throughput(benchmark):
    """napa-scale on the SoA core with lazy peer-state materialisation.

    The paired entry for ``test_engine_scale_throughput[soa]``: identical
    run, lazy peer state — on-demand score rows, first-contact
    busy/latency state, blockwise availability.  Byte-identical traces
    (the differential suite pins that); this entry records what the lazy
    indirection costs where it is *not* needed.
    """
    profile = get_profile("napa-scale")
    config = EngineConfig(duration_s=SCALE_DURATION_S, seed=SCALE_SEED)

    def run():
        return simulate(profile, engine_config=config)

    with forced(engine="soa", peer_state="lazy"):
        result = benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)
    benchmark.extra_info["engine"] = result.extras["engine_mode"]
    benchmark.extra_info["swarm"] = profile.swarm_size
    benchmark.extra_info["peer_state"] = result.extras["engine_stats"]["peer_state"]
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["transfers"] = len(result.transfers)
    benchmark.extra_info["simulated_s"] = SCALE_DURATION_S
    benchmark.extra_info["peak_rss_mb"] = round(_peak_rss_mb(), 1)


@pytest.mark.skipif(
    not os.environ.get("REPRO_SCALE_MEGA"),
    reason="10^5.7-10^6-peer runs; set REPRO_SCALE_MEGA=1 to enable",
)
@pytest.mark.parametrize("peer_state", ["eager", "lazy"])
@pytest.mark.parametrize("swarm", [500_000, 1_000_000])
def test_engine_mega_throughput(benchmark, swarm, peer_state):
    """The mega-scale swarm, eager vs lazy, across the memory crossover.

    One simulated minute on the SoA core.  The lazy cells are the
    acceptance record for the 10^6 memory envelope; the eager cells pin
    what swarm-proportional state costs at the same sizes (score rows
    alone are ~1.1 GB at 10^6).  Run each cell in its own process — see
    the module docstring on ``ru_maxrss``.
    """
    profile = get_profile("mega-scale").scaled_swarm(swarm)
    config = EngineConfig(duration_s=MEGA_DURATION_S, seed=SCALE_SEED)

    def run():
        return simulate(profile, engine_config=config)

    with forced(engine="soa", peer_state=peer_state):
        result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["engine"] = result.extras["engine_mode"]
    benchmark.extra_info["swarm"] = swarm
    benchmark.extra_info["peer_state"] = result.extras["engine_stats"]["peer_state"]
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["transfers"] = len(result.transfers)
    benchmark.extra_info["simulated_s"] = MEGA_DURATION_S
    benchmark.extra_info["peak_rss_mb"] = round(_peak_rss_mb(), 1)


@pytest.mark.skipif(
    not os.environ.get("REPRO_SCALE_HOUR"),
    reason="hour-long acceptance run; set REPRO_SCALE_HOUR=1 to enable",
)
def test_engine_scale_hour(benchmark):
    """One full simulated hour of napa-scale on the SoA core.

    The acceptance run behind the profile: a paper-length capture at the
    paper's swarm size must complete in bounded memory.  ``peak_rss_mb``
    in its ``BENCH_engine.json`` entry is that record — the sparse swarm
    and the sliding SoA windows keep residency flat while chunk ids grow
    without bound over the hour.
    """
    profile = get_profile("napa-scale")
    config = EngineConfig(duration_s=3600.0, seed=SCALE_SEED)

    def run():
        return simulate(profile, engine_config=config)

    result = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["engine"] = result.extras["engine_mode"]
    benchmark.extra_info["swarm"] = profile.swarm_size
    benchmark.extra_info["events"] = result.events_processed
    benchmark.extra_info["transfers"] = len(result.transfers)
    benchmark.extra_info["simulated_s"] = 3600.0
    benchmark.extra_info["peak_rss_mb"] = round(_peak_rss_mb(), 1)
