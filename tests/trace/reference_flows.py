"""The expand-and-scatter flow builder the sorted-segment builder replaced.

Same contract as :func:`repro.trace.flows.build_flow_table`: the same flow
table, byte for byte, and the same ``trace/*`` and ``capture/*`` counters.
It expands every signaling interval into transfers, filters the expanded
log, hashes one inter-packet gap per record and reduces with ``ufunc.at``
scatters.  The differential suite checks the production builder against
it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TraceError
from repro.trace.capture import captured_by
from repro.trace.flows import FlowTable, _pair_keys
from repro.trace.hosts import HostTable
from repro.trace.packets import PacketSynthesizer, expand_signaling, packet_counts, transfer_gaps
from repro.trace.records import FLOW_DTYPE, TRANSFER_DTYPE, PacketKind


def reference_flow_table(
    transfers: np.ndarray,
    signaling: np.ndarray,
    hosts: HostTable,
    paths,
    *,
    probes_only: bool = True,
    telemetry=None,
) -> FlowTable:
    """The original expand-and-scatter aggregation (reference implementation)."""
    if transfers.dtype != TRANSFER_DTYPE:
        raise TraceError("build_flow_table() wants a TRANSFER_DTYPE array")
    parts = [transfers]
    if signaling is not None and len(signaling):
        parts.append(expand_signaling(signaling))
    log = np.concatenate(parts) if len(parts) > 1 else parts[0]
    if telemetry is not None:
        telemetry.count("trace/transfer_records", len(transfers))
        telemetry.count("trace/signaling_records", len(log) - len(transfers))
    if probes_only and len(log):
        log = captured_by(log, hosts.probe_ips, telemetry=telemetry)
    if len(log) == 0:
        return FlowTable(np.empty(0, dtype=FLOW_DTYPE), hosts)

    keys = _pair_keys(log["src"], log["dst"])
    uniq, inverse = np.unique(keys, return_inverse=True)
    m = len(uniq)

    pkts = packet_counts(log)
    gaps = transfer_gaps(log, hosts)
    video = log["kind"] == int(PacketKind.VIDEO)
    nbytes = log["bytes"].astype(np.uint64)

    flows = np.empty(m, dtype=FLOW_DTYPE)
    flows["bytes"] = np.bincount(inverse, weights=nbytes.astype(np.float64), minlength=m)
    flows["pkts"] = np.bincount(inverse, weights=pkts.astype(np.float64), minlength=m)
    flows["video_bytes"] = np.bincount(
        inverse, weights=(nbytes * video).astype(np.float64), minlength=m
    )
    flows["video_pkts"] = np.bincount(
        inverse, weights=(pkts * video).astype(np.float64), minlength=m
    )

    min_ipg = np.full(m, np.inf)
    np.minimum.at(min_ipg, inverse, gaps)
    flows["min_ipg"] = min_ipg

    first = np.full(m, np.inf)
    last = np.full(m, -np.inf)
    np.minimum.at(first, inverse, log["ts"])
    np.maximum.at(last, inverse, log["ts"])
    flows["first_ts"] = first
    flows["last_ts"] = last

    flows["src"] = (uniq >> np.uint64(32)).astype(np.uint32)
    flows["dst"] = (uniq & np.uint64(0xFFFFFFFF)).astype(np.uint32)

    synth = PacketSynthesizer(hosts, paths)
    flows["ttl"] = synth.ttl_for(flows["src"], flows["dst"])
    return FlowTable(flows, hosts)
