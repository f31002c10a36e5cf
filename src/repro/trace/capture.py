"""Vantage-point capture: keep only traffic a probe's sniffer saw.

The paper's dataset is packet-level captures taken *at the probes*; traffic
between two remote peers never appears in it.  These helpers filter record
arrays (transfers or packets — anything with ``src``/``dst`` columns) down
to the probe-visible subset, or to a single probe's view.

Each filter accepts an optional :class:`~repro.obs.telemetry.Telemetry`
and tallies records seen vs. kept (``capture/records_in`` /
``capture/records_kept``) — the per-stage accounting of what the capture
dropped that the run manifest reports.  Counting never alters the
returned arrays.
"""

from __future__ import annotations

import numpy as np

from repro.obs.telemetry import Telemetry


def capture_mask(records: np.ndarray, ips: np.ndarray) -> np.ndarray:
    """Which records any of ``ips`` saw: those it sent or received."""
    ips = np.asarray(ips, dtype=np.uint32)
    return np.isin(records["src"], ips) | np.isin(records["dst"], ips)


def captured_by(
    records: np.ndarray,
    probe_ips: np.ndarray,
    *,
    telemetry: Telemetry | None = None,
) -> np.ndarray:
    """Records visible to *any* probe (the merged campaign dataset)."""
    if len(records) == 0:
        return records
    kept = records[capture_mask(records, probe_ips)]
    if telemetry is not None:
        telemetry.count("capture/records_in", len(records))
        telemetry.count("capture/records_kept", len(kept))
    return kept


def probe_transfers(
    records: np.ndarray,
    probe_ip: int,
    *,
    telemetry: Telemetry | None = None,
) -> np.ndarray:
    """Records visible to one probe: everything it sent or received."""
    if len(records) == 0:
        return records
    ip = np.uint32(probe_ip)
    kept = records[(records["src"] == ip) | (records["dst"] == ip)]
    if telemetry is not None:
        telemetry.count("capture/records_in", len(records))
        telemetry.count("capture/records_kept", len(kept))
    return kept


def split_directions(records: np.ndarray, probe_ip: int) -> tuple[np.ndarray, np.ndarray]:
    """A probe's view split into (received, sent) record arrays.

    ``received`` holds records whose destination is the probe (download
    direction, the ``e → p`` flows of the framework); ``sent`` holds the
    upload direction (``p → e``).
    """
    ip = np.uint32(probe_ip)
    own = probe_transfers(records, probe_ip)
    return own[own["dst"] == ip], own[own["src"] == ip]
