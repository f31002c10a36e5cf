"""Synthetic remote peer population (the swarm beyond the probes).

The paper's experiments tuned all three applications to the CCTV-1 channel
during Chinese peak hours, so the audience is dominated by Chinese peers
with a European tail (Fig. 1).  This subpackage generates that audience:

* :mod:`repro.population.demographics` — country / bandwidth mixes;
* :mod:`repro.population.generator` — swarm instantiation on a
  :class:`~repro.topology.world.World`, as numpy columns;
* :mod:`repro.population.sparse` — the block-wise draw scheme of the
  paper-scale swarms;
* :mod:`repro.population.churn` — session arrival/departure process.
"""

from repro.population.demographics import Demographics, cctv1_audience
from repro.population.generator import PopulationConfig, SwarmColumns, generate_population
from repro.population.churn import ChurnConfig, ChurnProcess, Session

__all__ = [
    "Demographics",
    "cctv1_audience",
    "PopulationConfig",
    "SwarmColumns",
    "generate_population",
    "ChurnConfig",
    "ChurnProcess",
    "Session",
]
