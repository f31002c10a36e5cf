"""Directional flow aggregation — the analysis framework's input.

A *flow* is everything one source sent one destination during a capture:
total bytes and packets, the video-payload share, the minimum inter-packet
gap of its packet trains (the capacity estimator's signal), the received
TTL (the hop estimator's signal) and first/last activity times.

Two construction paths exist and agree exactly:

* :func:`build_flow_table` aggregates the engine's transfer log and
  signaling intervals directly (fast path, used for full experiments): no
  packet materialisation, and each signaling interval is summed in closed
  form rather than expanded into its exchanges;
* :meth:`FlowTable.from_packets` aggregates a packet trace (what one would
  do with a real pcap; used by tests to prove the fast path faithful).
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.trace.capture import capture_mask
from repro.trace.hosts import HostTable
from repro.trace.packets import (
    PacketSynthesizer,
    pair_gaps,
    packet_counts,
    signaling_counts,
    signaling_times,
)
from repro.trace.records import (
    FLOW_DTYPE,
    PACKET_DTYPE,
    SIGNALING_DTYPE,
    TRANSFER_DTYPE,
    PacketKind,
)


def _pair_keys(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Collapse (src, dst) pairs into sortable 64-bit keys."""
    return (src.astype(np.uint64) << np.uint64(32)) | dst.astype(np.uint64)


class FlowTable:
    """A structured flow array plus the host ground truth it references."""

    def __init__(self, flows: np.ndarray, hosts: HostTable) -> None:
        if flows.dtype != FLOW_DTYPE:
            raise TraceError(f"flow table dtype mismatch: {flows.dtype}")
        self.flows = flows
        self.hosts = hosts

    def __len__(self) -> int:
        return len(self.flows)

    # ------------------------------------------------------------- selection
    @property
    def probe_ips(self) -> np.ndarray:
        return self.hosts.probe_ips

    def received_by(self, probe_ip: int) -> np.ndarray:
        """Flows into ``probe_ip`` — the e → p download side D(p)."""
        return self.flows[self.flows["dst"] == np.uint32(probe_ip)]

    def sent_by(self, probe_ip: int) -> np.ndarray:
        """Flows out of ``probe_ip`` — the p → e upload side U(p)."""
        return self.flows[self.flows["src"] == np.uint32(probe_ip)]

    def with_video(self) -> np.ndarray:
        """Flows that carried at least one video payload byte."""
        return self.flows[self.flows["video_bytes"] > 0]

    # --------------------------------------------------------- constructors
    @classmethod
    def from_packets(cls, packets: np.ndarray, hosts: HostTable) -> "FlowTable":
        """Aggregate a packet trace into flows (the pcap-analyst path)."""
        if packets.dtype != PACKET_DTYPE:
            raise TraceError("from_packets() wants a PACKET_DTYPE array")
        if len(packets) == 0:
            return cls(np.empty(0, dtype=FLOW_DTYPE), hosts)
        order = np.argsort(
            _pair_keys(packets["src"], packets["dst"]), kind="stable"
        )
        pk = packets[order]
        keys = _pair_keys(pk["src"], pk["dst"])
        uniq, starts = np.unique(keys, return_index=True)
        bounds = np.append(starts, len(pk))

        flows = np.empty(len(uniq), dtype=FLOW_DTYPE)
        video = pk["kind"] == int(PacketKind.VIDEO)
        sizes = pk["size"].astype(np.uint64)
        for i, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            grp = slice(a, b)
            ts = np.sort(pk["ts"][grp])
            gaps = np.diff(ts)
            # min IPG over back-to-back *video* trains: approximate the
            # paper's estimator with the min positive gap among packets of
            # the flow (train gaps dominate when trains exist).
            vid = video[grp]
            if vid.sum() >= 2:
                vts = np.sort(pk["ts"][grp][vid])
                vgaps = np.diff(vts)
                vgaps = vgaps[vgaps > 0]
                min_ipg = float(vgaps.min()) if len(vgaps) else np.inf
            else:
                min_ipg = np.inf
            flows[i] = (
                pk["src"][a],
                pk["dst"][a],
                int(sizes[grp].sum()),
                b - a,
                int(sizes[grp][vid].sum()),
                int(vid.sum()),
                min_ipg,
                pk["ttl"][a],
                float(ts[0]),
                float(ts[-1]),
            )
        return cls(flows, hosts)


def build_flow_table(
    transfers: np.ndarray,
    signaling: np.ndarray,
    hosts: HostTable,
    paths,
    *,
    probes_only: bool = True,
    telemetry=None,
) -> FlowTable:
    """Aggregate an engine transfer log (+ signaling intervals) into flows.

    Every transfer and every signaling interval is one *unit* with a
    closed-form contribution to its pair's flow; an interval of ``n``
    exchanges adds ``n·bytes`` and ``n`` packets, spans its first to its
    last exchange and carries no video.  The units are sorted once by
    pair and reduced by segment.  A flow's min IPG is its pair's
    :func:`~repro.trace.packets.pair_gaps` value when any of its transfers
    is a packet train, else inf; gaps and TTLs are computed once per flow.

    Parameters
    ----------
    transfers / signaling:
        The engine's raw output.
    hosts / paths:
        Ground-truth host table and the path model (for received TTLs).
    probes_only:
        Keep only probe-visible traffic (what the capture contains).  The
        engine only generates probe-touching traffic anyway, so this is a
        safety filter.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`; tallies the
        transfers and signaling exchanges aggregated (``trace/*``) and
        the exchanges the capture saw and kept (``capture/*``), each
        signaling exchange counted as the record it stands for.
    """
    if transfers.dtype != TRANSFER_DTYPE:
        raise TraceError("build_flow_table() wants a TRANSFER_DTYPE array")
    if signaling is None or len(signaling) == 0:
        signaling = np.empty(0, dtype=SIGNALING_DTYPE)
    reps = signaling_counts(signaling)
    n_records = len(transfers) + int(reps.sum())
    if telemetry is not None:
        telemetry.count("trace/transfer_records", len(transfers))
        telemetry.count("trace/signaling_records", n_records - len(transfers))
    if probes_only and n_records:
        t_seen = capture_mask(transfers, hosts.probe_ips)
        s_seen = capture_mask(signaling, hosts.probe_ips)
        transfers, signaling, reps = transfers[t_seen], signaling[s_seen], reps[s_seen]
        if telemetry is not None:
            telemetry.count("capture/records_in", n_records)
            telemetry.count("capture/records_kept", len(transfers) + int(reps.sum()))
    live = reps > 0
    signaling, reps = signaling[live], reps[live]
    if len(transfers) + len(signaling) == 0:
        return FlowTable(np.empty(0, dtype=FLOW_DTYPE), hosts)

    keys = np.concatenate(
        (
            _pair_keys(transfers["src"], transfers["dst"]),
            _pair_keys(signaling["src"], signaling["dst"]),
        )
    )
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))

    def per_flow(reduce, of_transfers, of_signaling):
        return reduce.reduceat(np.concatenate((of_transfers, of_signaling))[order], starts)

    pkts = packet_counts(transfers).astype(np.uint64)
    video = transfers["kind"] == int(PacketKind.VIDEO)
    nbytes = transfers["bytes"].astype(np.uint64)
    none = np.zeros(len(signaling), dtype=np.uint64)
    sig_pkts = reps.astype(np.uint64)

    flows = np.empty(len(starts), dtype=FLOW_DTYPE)
    flows["src"] = (keys[starts] >> np.uint64(32)).astype(np.uint32)
    flows["dst"] = (keys[starts] & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    flows["bytes"] = per_flow(np.add, nbytes, signaling["bytes"] * sig_pkts)
    flows["pkts"] = per_flow(np.add, pkts, sig_pkts)
    flows["video_bytes"] = per_flow(np.add, nbytes * video, none)
    flows["video_pkts"] = per_flow(np.add, pkts * video, none)
    flows["first_ts"] = per_flow(np.minimum, transfers["ts"], signaling_times(signaling, 0))
    flows["last_ts"] = per_flow(np.maximum, transfers["ts"], signaling_times(signaling, reps - 1))

    trains = per_flow(np.logical_or, pkts >= 2, none.astype(bool))
    gaps = pair_gaps(flows["src"], flows["dst"], hosts)
    flows["min_ipg"] = np.where(trains, gaps, np.inf)
    flows["ttl"] = PacketSynthesizer(hosts, paths).ttl_for(flows["src"], flows["dst"])
    return FlowTable(flows, hosts)
