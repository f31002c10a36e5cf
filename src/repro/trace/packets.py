"""Packet-train synthesis: turn transfers into the packets a sniffer sees.

A video chunk is serialised as a burst of MTU-sized packets whose spacing
is the serialisation time of one packet at the path bottleneck — the
"packet train" the paper's minimum inter-packet-gap (IPG) estimator
exploits: 1250 B at 10 Mb/s take exactly 1 ms, so ``min IPG < 1 ms`` flags
a >10 Mb/s path.  Signaling and control exchanges are single small
datagrams.

Per-pair deterministic jitter widens gaps slightly (queueing never
*shrinks* the dispersion of a bottleneck-paced train below the
serialisation time, so jitter is one-sided), and the same jitter is used
by the flow aggregator so packet-level and flow-level analyses agree
exactly.  Periodic signaling is stored as intervals; :func:`expand_signaling`
turns them into single-datagram transfers for the packet path, while the
flow aggregator sums each interval in closed form from
:func:`signaling_counts` and :func:`signaling_times`.
"""

from __future__ import annotations

import numpy as np

from repro._hashing import pair_uniform
from repro.errors import TraceError
from repro.trace.hosts import HostTable
from repro.trace.records import PACKET_DTYPE, SIGNALING_DTYPE, TRANSFER_DTYPE, PacketKind
from repro.units import BITS_PER_BYTE

#: Video payload bytes per packet (the paper's reference size).
PACKET_PAYLOAD_BYTES = 1250

#: Hash-stream tag for IPG jitter (so it never collides with path jitter).
_IPG_SEED = 0x1B6

#: One-sided multiplicative jitter span on packet gaps.
IPG_JITTER_SPAN = 0.08


def pair_gaps(src: np.ndarray, dst: np.ndarray, hosts: HostTable) -> np.ndarray:
    """Packet spacing in seconds of a ``src → dst`` train.

    The train is paced by the *sender's uplink* serialisation time.  This
    is a deliberate modelling choice (DESIGN.md §7): the paper's estimator
    classifies the peer's capacity from min IPG, and over long flows the
    minimum gap reflects the sender-side pacing — last-mile queues compress
    bursts as often as they stretch them, so the observed minimum converges
    to the uplink serialisation time even behind slower probe downlinks.

    The gap depends on the pair only, so the flow aggregator evaluates it
    once per flow and the packet path once per transfer, both here.
    """
    up = hosts.gather(src, "up_bps")
    base = PACKET_PAYLOAD_BYTES * BITS_PER_BYTE / up
    jitter = 1.0 + IPG_JITTER_SPAN * pair_uniform(src, dst, _IPG_SEED)
    return base * jitter


def transfer_gaps(transfers: np.ndarray, hosts: HostTable) -> np.ndarray:
    """Per-transfer packet spacing in seconds (inf for single-packet ones).

    :func:`pair_gaps` of each transfer's pair; a flow's min IPG is that
    same value when any of its transfers is a train of two or more packets.
    """
    gaps = pair_gaps(transfers["src"], transfers["dst"], hosts)
    return np.where(packet_counts(transfers) >= 2, gaps, np.inf)


def packet_counts(transfers: np.ndarray) -> np.ndarray:
    """Packets per transfer: video chunks are cut at the MTU, the rest are
    single datagrams."""
    video = transfers["kind"] == int(PacketKind.VIDEO)
    counts = np.ones(len(transfers), dtype=np.int64)
    counts[video] = -(-transfers["bytes"][video].astype(np.int64) // PACKET_PAYLOAD_BYTES)
    return counts


class PacketSynthesizer:
    """Expand transfers into per-packet records with timestamps and TTLs."""

    def __init__(self, hosts: HostTable, paths) -> None:
        """``paths`` is a :class:`repro.topology.paths.PathModel`."""
        self._hosts = hosts
        self._paths = paths

    def ttl_for(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Received TTL per (src, dst) pair: initial TTL − forward hops."""
        h = self._hosts
        hops = self._paths.hops_many(
            src,
            h.gather(src, "asn"),
            h.gather(src, "subnet"),
            h.gather(src, "access_depth"),
            dst,
            h.gather(dst, "asn"),
            h.gather(dst, "subnet"),
            h.gather(dst, "access_depth"),
        )
        ttl = h.gather(src, "initial_ttl").astype(np.int64) - hops
        if np.any(ttl <= 0):
            raise TraceError("path longer than initial TTL; topology inconsistent")
        return ttl.astype(np.uint8)

    def expand(self, transfers: np.ndarray) -> np.ndarray:
        """Expand a transfer log into a time-sorted packet trace."""
        if transfers.dtype != TRANSFER_DTYPE:
            raise TraceError("expand() wants a TRANSFER_DTYPE array")
        n = len(transfers)
        if n == 0:
            return np.empty(0, dtype=PACKET_DTYPE)
        counts = packet_counts(transfers)
        gaps = transfer_gaps(transfers, self._hosts)
        total = int(counts.sum())

        # Within-burst packet index via the standard repeat/cumsum trick.
        owner = np.repeat(np.arange(n), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        within = np.arange(total) - np.repeat(starts, counts)

        out = np.empty(total, dtype=PACKET_DTYPE)
        finite_gaps = np.where(np.isfinite(gaps), gaps, 0.0)
        out["ts"] = transfers["ts"][owner] + within * finite_gaps[owner]
        out["src"] = transfers["src"][owner]
        out["dst"] = transfers["dst"][owner]
        out["kind"] = transfers["kind"][owner]

        # Sizes: full MTU payloads except a possibly-short trailing packet.
        nbytes = transfers["bytes"].astype(np.int64)
        last_size = nbytes - (counts - 1) * PACKET_PAYLOAD_BYTES
        is_last = within == (counts[owner] - 1)
        out["size"] = np.where(is_last, last_size[owner], PACKET_PAYLOAD_BYTES)

        out["ttl"] = self.ttl_for(out["src"], out["dst"])
        return out[np.argsort(out["ts"], kind="stable")]


def signaling_counts(intervals: np.ndarray) -> np.ndarray:
    """Exchanges per signaling interval: ``floor((stop-start)/interval) + 1``.

    Zero for an interval that stops less than one period before it
    starts; an interval that stops earlier than that is malformed.
    """
    if intervals.dtype != SIGNALING_DTYPE:
        raise TraceError("signaling intervals want a SIGNALING_DTYPE array")
    spans = intervals["stop"] - intervals["start"]
    counts = np.floor(spans / intervals["interval"]).astype(np.int64) + 1
    if np.any(counts < 0):
        raise TraceError("signaling interval stops more than one period before it starts")
    return counts


def signaling_times(intervals: np.ndarray, k) -> np.ndarray:
    """Time of each interval's ``k``-th exchange, ``start + k·interval``."""
    return intervals["start"] + k * intervals["interval"]


def expand_signaling(intervals: np.ndarray) -> np.ndarray:
    """Expand periodic signaling intervals into individual transfers.

    Each interval ``(src, dst, start, stop, interval, bytes)`` becomes
    :func:`signaling_counts` SIGNALING transfers at ``start + k·interval``.
    Bottleneck is irrelevant for single small datagrams and set to +inf.
    The flow aggregator never calls this: it sums each interval in closed
    form.  The packet path and the tests use it.
    """
    counts = signaling_counts(intervals)
    n = len(intervals)
    if n == 0:
        return np.empty(0, dtype=TRANSFER_DTYPE)
    total = int(counts.sum())
    owner = np.repeat(np.arange(n), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total) - np.repeat(starts, counts)

    rows = intervals[owner]
    out = np.empty(total, dtype=TRANSFER_DTYPE)
    out["ts"] = signaling_times(rows, within)
    out["src"] = rows["src"]
    out["dst"] = rows["dst"]
    out["bytes"] = rows["bytes"]
    out["kind"] = int(PacketKind.SIGNALING)
    out["bottleneck"] = np.inf
    return out[np.argsort(out["ts"], kind="stable")]
