"""Flow aggregation — including fast-path vs packet-path equivalence."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.trace.capture import captured_by
from repro.trace.flows import FlowTable, build_flow_table
from repro.trace.packets import PacketSynthesizer, expand_signaling
from repro.trace.records import FLOW_DTYPE


class TestBuildFlowTable:
    def test_flows_cover_all_probe_pairs(self, sim_small, flows_small):
        tr = captured_by(sim_small.transfers, sim_small.probe_ips)
        pairs = {(int(s), int(d)) for s, d in zip(tr["src"], tr["dst"])}
        flow_pairs = {
            (int(s), int(d))
            for s, d in zip(flows_small.flows["src"], flows_small.flows["dst"])
        }
        assert pairs <= flow_pairs

    def test_byte_conservation(self, sim_small, flows_small):
        logged = int(sim_small.transfers["bytes"].astype(np.uint64).sum())
        signaling = expand_signaling(sim_small.signaling)
        logged += int(signaling["bytes"].astype(np.uint64).sum())
        assert int(flows_small.flows["bytes"].sum()) == logged

    def test_video_bytes_subset(self, flows_small):
        f = flows_small.flows
        assert np.all(f["video_bytes"] <= f["bytes"])
        assert np.all(f["video_pkts"] <= f["pkts"])

    def test_timestamps_ordered(self, flows_small):
        f = flows_small.flows
        assert np.all(f["first_ts"] <= f["last_ts"])

    def test_min_ipg_positive(self, flows_small):
        assert np.all(flows_small.flows["min_ipg"] > 0)

    def test_video_flows_have_finite_ipg(self, flows_small):
        f = flows_small.flows
        video = f[f["video_pkts"] > 0]
        assert np.all(np.isfinite(video["min_ipg"]))

    def test_signaling_only_flows_have_inf_ipg(self, flows_small):
        f = flows_small.flows
        sig_only = f[f["video_pkts"] == 0]
        assert np.all(np.isinf(sig_only["min_ipg"]))

    def test_ttl_plausible(self, flows_small):
        ttl = flows_small.flows["ttl"]
        assert np.all((ttl > 80) & (ttl <= 128) | (ttl > 30) & (ttl <= 64))

    def test_wrong_dtype_rejected(self, sim_small):
        with pytest.raises(TraceError):
            build_flow_table(
                np.zeros(2, dtype=FLOW_DTYPE),
                sim_small.signaling,
                sim_small.hosts,
                sim_small.world.paths,
            )

    def test_empty_log(self, sim_small):
        table = build_flow_table(
            np.empty(0, dtype=sim_small.transfers.dtype),
            np.empty(0, dtype=sim_small.signaling.dtype),
            sim_small.hosts,
            sim_small.world.paths,
        )
        assert len(table) == 0


class TestDirectionalSelectors:
    def test_received_by(self, flows_small):
        probe = int(flows_small.probe_ips[0])
        rx = flows_small.received_by(probe)
        assert np.all(rx["dst"] == np.uint32(probe))

    def test_sent_by(self, flows_small):
        probe = int(flows_small.probe_ips[0])
        tx = flows_small.sent_by(probe)
        assert np.all(tx["src"] == np.uint32(probe))

    def test_with_video(self, flows_small):
        assert np.all(flows_small.with_video()["video_bytes"] > 0)


class TestPacketPathEquivalence:
    """The pcap-analyst path must agree with the fast path.

    The slice carries signaling: the fast path sums each interval in
    closed form, the packet path sees its expanded datagrams.
    """

    @pytest.fixture(scope="class")
    def both(self, sim_small):
        # Restrict to one probe's traffic to keep packet volume small.
        probe = int(sim_small.probe_ips[3])
        mask = (sim_small.transfers["src"] == probe) | (
            sim_small.transfers["dst"] == probe
        )
        transfers = sim_small.transfers[mask][:3000]
        sig = sim_small.signaling
        signaling = sig[(sig["src"] == probe) | (sig["dst"] == probe)][:300]
        assert len(signaling)
        fast = build_flow_table(
            transfers,
            signaling,
            sim_small.hosts,
            sim_small.world.paths,
            probes_only=False,
        )
        synth = PacketSynthesizer(sim_small.hosts, sim_small.world.paths)
        packets = synth.expand(np.concatenate((transfers, expand_signaling(signaling))))
        slow = FlowTable.from_packets(packets, sim_small.hosts)
        return fast, slow

    def test_same_pairs(self, both):
        fast, slow = both
        fp = set(zip(fast.flows["src"].tolist(), fast.flows["dst"].tolist()))
        sp = set(zip(slow.flows["src"].tolist(), slow.flows["dst"].tolist()))
        assert fp == sp

    def test_same_bytes_and_pkts(self, both):
        fast, slow = both
        f = np.sort(fast.flows, order=["src", "dst"])
        s = np.sort(slow.flows, order=["src", "dst"])
        assert np.array_equal(f["bytes"], s["bytes"])
        assert np.array_equal(f["pkts"], s["pkts"])
        assert np.array_equal(f["video_bytes"], s["video_bytes"])

    def test_same_ttl(self, both):
        fast, slow = both
        f = np.sort(fast.flows, order=["src", "dst"])
        s = np.sort(slow.flows, order=["src", "dst"])
        assert np.array_equal(f["ttl"], s["ttl"])

    def test_equivalent_bw_classification(self, both):
        # min IPG values may differ slightly (the packet path can observe
        # inter-transfer gaps), but the 1 ms classification must agree for
        # flows with video trains.
        fast, slow = both
        f = np.sort(fast.flows, order=["src", "dst"])
        s = np.sort(slow.flows, order=["src", "dst"])
        has_train = f["video_pkts"] >= 2
        assert np.array_equal(
            f["min_ipg"][has_train] < 1e-3, s["min_ipg"][has_train] < 1e-3
        )
