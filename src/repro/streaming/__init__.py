"""Chunk-based mesh-pull P2P live-streaming simulator.

This subpackage is the stand-in for the three proprietary applications the
paper measured.  A discrete-event engine drives full protocol agents at the
NAPA-WINE probes (partner management, buffer maps, chunk scheduling,
upload queuing) against a statistically-modelled remote swarm, emitting the
transfer log from which probe-side packet traces are synthesised.

The per-application differences the paper infers — bandwidth preference,
AS locality, contact aggressiveness, signaling overhead — are encoded as
:class:`~repro.streaming.profiles.AppProfile` parameters, so the analysis
framework can be validated against known ground truth.
"""

from repro.streaming.chunk import ChunkClock
from repro.streaming.video import VideoConfig
from repro.streaming.selection import SelectionPolicy, SelectionWeights
from repro.streaming.availability import AvailabilityConfig, RemoteAvailability
from repro.streaming.buffer import PlayoutBuffer
from repro.streaming.profiles import (
    AppProfile,
    PROFILES,
    get_profile,
    napa_wine,
    pplive,
    pplive_popular,
    random_baseline,
    sopcast,
    tvants,
)
from repro.streaming.engine import Engine, EngineConfig, SimulationResult, simulate
from repro.streaming.soa import SoAEngine, SoAState

__all__ = [
    "ChunkClock",
    "VideoConfig",
    "SelectionPolicy",
    "SelectionWeights",
    "AvailabilityConfig",
    "RemoteAvailability",
    "PlayoutBuffer",
    "AppProfile",
    "PROFILES",
    "get_profile",
    "napa_wine",
    "pplive",
    "pplive_popular",
    "random_baseline",
    "sopcast",
    "tvants",
    "Engine",
    "EngineConfig",
    "SimulationResult",
    "simulate",
    "SoAEngine",
    "SoAState",
]
