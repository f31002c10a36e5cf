"""Transport model: uplink serialisation, latency, and transfer recording.

The transport layer is where access capacities become *observable*:

* a sender's uplink serialises transfers one at a time (its ``tx_free_at``
  horizon), so a 0.384 Mb/s DSL uplink physically cannot sustain more than
  one stream — the capacity constraint behind the BW findings;
* the path bottleneck ``min(src.up, dst.down)`` paces the packets of each
  chunk train, which is what the receiver-side min-IPG estimator measures;
* every exchange lands in a columnar :class:`TransferRecorder` (compact
  ``array`` columns, finalised into one structured numpy array).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.trace.records import SIGNALING_DTYPE, TRANSFER_DTYPE, PacketKind
from repro.units import BITS_PER_BYTE

#: Payload bytes per video packet (the paper's 1250 B reference packet,
#: whose serialisation at 10 Mb/s takes exactly 1 ms — the BW threshold).
PACKET_PAYLOAD_BYTES = 1250

#: Base propagation latency plus per-hop forwarding delay.
BASE_LATENCY_S = 0.004
PER_HOP_LATENCY_S = 0.002


def path_latency(hops: int) -> float:
    """One-way latency of a path with ``hops`` router hops."""
    return BASE_LATENCY_S + PER_HOP_LATENCY_S * hops


def bottleneck_bps(src_up_bps: float, dst_down_bps: float) -> float:
    """The path bottleneck seen by a transfer ``src → dst``."""
    return min(src_up_bps, dst_down_bps)


class TransferRecorder:
    """Row accumulator for the engine's transfer log.

    Rows are buffered as plain tuples — one list append per logged packet,
    the cheapest thing the hot path can do — and pivoted into the columnar
    structured array once, at :meth:`finalize`.  ``append_row`` is the
    bound list-append itself; the engine calls it directly with a
    ``(ts, src_ip, dst_ip, nbytes, kind, bottleneck)`` tuple.
    """

    def __init__(self) -> None:
        self._rows: list[tuple[float, int, int, int, int, float]] = []
        #: Hot-path entry point (the bound ``list.append``).
        self.append_row = self._rows.append

    def record(
        self,
        ts: float,
        src_ip: int,
        dst_ip: int,
        nbytes: int,
        kind: PacketKind,
        bottleneck: float,
    ) -> None:
        """Append one exchange."""
        self._rows.append((ts, src_ip, dst_ip, nbytes, int(kind), bottleneck))

    def __len__(self) -> int:
        return len(self._rows)

    def finalize(self) -> np.ndarray:
        """Materialise the log as a time-sorted structured array.

        One C-level pass converts the row tuples into a (n, 6) float64
        matrix whose columns are cast into the structured dtype.  Every
        integer column (IPv4 addresses, byte counts, packet kinds) is far
        below 2^53, so the float64 round-trip is exact and the output is
        byte-identical to the per-column zip transpose it replaced.
        """
        n = len(self._rows)
        out = np.empty(n, dtype=TRANSFER_DTYPE)
        if n:
            cols = np.array(self._rows, dtype=np.float64)
            out["ts"] = cols[:, 0]
            out["src"] = cols[:, 1]
            out["dst"] = cols[:, 2]
            out["bytes"] = cols[:, 3]
            out["kind"] = cols[:, 4]
            out["bottleneck"] = cols[:, 5]
        return out[np.argsort(out["ts"], kind="stable")]


class SignalingBook:
    """Open/close periodic signaling relationships between peer pairs.

    Buffer-map and keepalive exchanges are periodic and dynamically inert
    (tiny packets), so instead of clogging the event queue the engine logs
    *intervals*.  The flow aggregator sums each interval in closed form
    (its exchange count, bytes and first/last times) without expanding
    it; :func:`repro.trace.packets.expand_signaling` turns intervals into
    timestamped transfers only for the packet path.
    """

    def __init__(self) -> None:
        self._open: dict[tuple[int, int, float, int], float] = {}
        self._closed: list[tuple[int, int, float, float, float, int]] = []
        #: (src, dst) → open keys of that pair, in first-open order — the
        #: same order a scan of ``_open`` (insertion-ordered) would yield,
        #: so close() emits identical interval sequences without the scan.
        self._pair_keys: dict[tuple[int, int], list[tuple[int, int, float, int]]] = {}

    def open(self, src_ip: int, dst_ip: int, t: float, interval: float, nbytes: int) -> None:
        """Start a periodic exchange ``src → dst`` at time ``t``."""
        if interval <= 0:
            raise SimulationError("signaling interval must be positive")
        key = (src_ip, dst_ip, interval, nbytes)
        # Re-opening an already-open relationship keeps the earlier start.
        if key not in self._open:
            self._open[key] = t
            pair = (src_ip, dst_ip)
            keys = self._pair_keys.get(pair)
            if keys is None:
                self._pair_keys[pair] = [key]
            else:
                keys.append(key)

    def close(self, src_ip: int, dst_ip: int, t: float) -> None:
        """Stop every periodic exchange ``src → dst`` at time ``t``."""
        for key in self._pair_keys.pop((src_ip, dst_ip), ()):
            start = self._open.pop(key, None)
            if start is not None and t > start:
                self._closed.append((key[0], key[1], start, t, key[2], key[3]))

    def finalize(self, t_end: float) -> np.ndarray:
        """Close everything still open and return the interval table."""
        for key, start in list(self._open.items()):
            if t_end > start:
                self._closed.append((key[0], key[1], start, t_end, key[2], key[3]))
        self._open.clear()
        self._pair_keys.clear()
        return np.array(self._closed, dtype=SIGNALING_DTYPE)


class UplinkScheduler:
    """Per-peer uplink serialisation with bounded queueing.

    ``admit`` answers: if ``src`` starts serialising ``nbytes`` now (or when
    its uplink frees up), when does transmission start — or is the backlog
    already too deep to accept the request?
    """

    def __init__(self, n_peers: int, up_bps: np.ndarray, max_backlog_s: float = 4.0) -> None:
        if len(up_bps) != n_peers:
            raise SimulationError("up_bps must have one entry per peer")
        # Plain Python floats: admit() runs once per queued transfer, and
        # scalar indexing of numpy arrays would box a fresh numpy scalar
        # per call.  Same IEEE doubles either way — arithmetic is
        # bit-identical to the previous array-backed implementation.
        # Public on purpose: the engine's per-request hot path reads these
        # directly (inlined admit), so they are part of the class contract.
        self.free_at: list[float] = [0.0] * n_peers
        self.up_bps: list[float] = np.asarray(up_bps, dtype=np.float64).tolist()
        self.max_backlog_s = max_backlog_s

    def admit(self, peer_idx: int, t: float, nbytes: int) -> float | None:
        """Try to enqueue ``nbytes`` on ``peer_idx``'s uplink at time ``t``.

        Returns the serialisation start time, or None when the uplink
        backlog exceeds the bound (the request is declined — the requester
        will try another provider at its next tick).
        """
        start = max(t, self.free_at[peer_idx])
        if start - t > self.max_backlog_s:
            return None
        duration = nbytes * BITS_PER_BYTE / self.up_bps[peer_idx]
        self.free_at[peer_idx] = start + duration
        return start

    def backlog(self, peer_idx: int, t: float) -> float:
        """Seconds of queued serialisation work at ``t``."""
        return max(0.0, self.free_at[peer_idx] - t)
