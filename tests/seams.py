"""The one test seam over the engine's own choices of core and peer state.

:func:`repro.streaming.engine.simulate` picks the engine core from the
profile (:func:`~repro.streaming.engine.select_engine`), and the engine
picks lazy peer state from its directory size
(:data:`~repro.streaming.engine.LAZY_AUTO_MIN`).  No keyword, flag or
environment variable overrides either choice.  The differential suites
and the paired benchmarks force each side by patching those two module
attributes, and only through :func:`forced`.
"""

from __future__ import annotations

import sys
from contextlib import ExitStack, contextmanager
from unittest import mock

import repro.streaming.engine as engine_mod
from repro.streaming.soa import ENGINES

#: ``LAZY_AUTO_MIN`` values that make every directory lazy / eager.
_THRESHOLDS = {"lazy": 0, "eager": sys.maxsize}


@contextmanager
def forced(*, engine: str | None = None, peer_state: str | None = None):
    """Run the enclosed simulations on core ``engine`` with ``peer_state``.

    ``None`` leaves that choice to the engine.
    """
    with ExitStack() as stack:
        if engine is not None:
            cls = ENGINES[engine]
            stack.enter_context(
                mock.patch.object(engine_mod, "select_engine", lambda profile: cls)
            )
        if peer_state is not None:
            stack.enter_context(
                mock.patch.object(engine_mod, "LAZY_AUTO_MIN", _THRESHOLDS[peer_state])
            )
        yield


def simulate_forced(profile, *, engine=None, peer_state=None, **kwargs):
    """:func:`~repro.streaming.engine.simulate` under :func:`forced`."""
    with forced(engine=engine, peer_state=peer_state):
        return engine_mod.simulate(profile, **kwargs)
