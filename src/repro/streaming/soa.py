"""The engine-core registry.

The simulator has one engine core, :class:`~repro.streaming.engine.Engine`,
which keeps every probe's buffer in the shared struct-of-arrays bitmaps of
:class:`~repro.streaming.buffer.SoAState`.  :data:`ENGINES` names it for
tooling that enumerates engine cores (benchmarks, tracers).
"""

from __future__ import annotations

from repro.streaming.buffer import SoAState
from repro.streaming.engine import Engine

#: Name → engine class, for every engine core.
ENGINES: dict[str, type[Engine]] = {"soa": Engine}

__all__ = ["ENGINES", "SoAState"]
