"""The one test seam over the engine's own choice of peer state.

The engine picks lazy peer state from its directory size
(:data:`~repro.streaming.engine.LAZY_AUTO_MIN`).  No keyword, flag or
environment variable overrides that choice.  The differential suites and
the paired benchmarks force each side by patching that module attribute,
and only through :func:`forced`.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from unittest import mock

import repro.streaming.engine as engine_mod

#: ``LAZY_AUTO_MIN`` values that make every directory lazy / eager.
_THRESHOLDS = {"lazy": 0, "eager": sys.maxsize}


@contextmanager
def forced(*, peer_state: str | None = None):
    """Run the enclosed simulations with ``peer_state``.

    ``None`` leaves that choice to the engine.
    """
    if peer_state is None:
        yield
        return
    with mock.patch.object(engine_mod, "LAZY_AUTO_MIN", _THRESHOLDS[peer_state]):
        yield


def simulate_forced(profile, *, peer_state=None, **kwargs):
    """:func:`~repro.streaming.engine.simulate` under :func:`forced`."""
    with forced(peer_state=peer_state):
        return engine_mod.simulate(profile, **kwargs)
