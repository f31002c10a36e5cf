"""The sorted-segment flow builder against the expand-and-scatter oracle.

:func:`build_flow_table` sums each signaling interval in closed form and
reduces by sorted pair segments; the oracle in :mod:`reference_flows`
expands every interval, filters the expanded log and scatters per
record.  On any transfer log and signaling table both must produce the
same flow table byte for byte, count the same ``trace/*`` and
``capture/*`` records, and raise the same error on malformed input.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.obs.telemetry import Telemetry
from repro.trace.flows import build_flow_table
from repro.trace.records import SIGNALING_DTYPE, TRANSFER_DTYPE, PacketKind

from tests.trace.reference_flows import reference_flow_table

COUNTERS = (
    "trace/transfer_records",
    "trace/signaling_records",
    "capture/records_in",
    "capture/records_kept",
)


@pytest.fixture(scope="module")
def pool(sim_small):
    """A few probe and remote addresses: drawn pairs repeat often, and the
    capture filter drops the remote-to-remote ones."""
    probes = sim_small.probe_ips[:4]
    remotes = sim_small.hosts.rows["ip"][~sim_small.hosts.rows["is_probe"]][:5]
    return [int(ip) for ip in np.concatenate((probes, remotes))]


def _outcome(build, transfers, signaling, sim, probes_only):
    """The flow table's bytes and counters, or the error type raised."""
    telemetry = Telemetry()
    try:
        table = build(
            transfers,
            signaling,
            sim.hosts,
            sim.world.paths,
            probes_only=probes_only,
            telemetry=telemetry,
        )
    except TraceError as exc:
        return type(exc)
    counters = {name: telemetry.counter(name) for name in COUNTERS}
    return table.flows.tobytes(), counters, set(telemetry.counters)


def _transfers(rows):
    return np.array(rows, dtype=TRANSFER_DTYPE)


def _signaling(rows):
    return np.array(rows, dtype=SIGNALING_DTYPE)


_KINDS = [int(k) for k in PacketKind]


@st.composite
def logs(draw, pool):
    """A transfer log and a signaling table over ``pool`` addresses.

    Times are quarter seconds (ties) or free floats; video chunks run from
    empty through one packet (<= 1250 B, no train) to several.  Interval
    spans cover a whole number of periods, less than one period
    (``stop < start + interval``) and a negative fraction of a period
    (``stop < start``, zero exchanges).
    """
    ip = st.sampled_from(pool)
    ts = st.one_of(
        st.integers(0, 400).map(lambda q: q / 4),
        st.floats(0.0, 300.0, allow_nan=False, allow_infinity=False),
    )
    transfer = st.tuples(
        ts,
        ip,
        ip,
        st.one_of(st.integers(0, 1250), st.integers(0, 9000)),
        st.sampled_from(_KINDS),
        st.floats(1e5, 1e8),
    )
    period = st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]), st.floats(0.05, 5.0))
    interval = st.tuples(ip, ip, ts, period, st.floats(-0.99, 12.0), st.integers(0, 400)).map(
        lambda r: (r[0], r[1], r[2], r[2] + r[4] * r[3], r[3], r[5])
    )
    return (
        _transfers(draw(st.lists(transfer, max_size=40))),
        _signaling(draw(st.lists(interval, max_size=15))),
    )


class TestAgainstOracle:
    @given(data=st.data(), probes_only=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_random_logs(self, data, probes_only, pool, sim_small):
        transfers, signaling = data.draw(logs(pool))
        got = _outcome(build_flow_table, transfers, signaling, sim_small, probes_only)
        want = _outcome(reference_flow_table, transfers, signaling, sim_small, probes_only)
        assert got == want

    @pytest.mark.parametrize("probes_only", [True, False])
    def test_simulated_run(self, sim_small, probes_only):
        sim = sim_small
        got = _outcome(build_flow_table, sim.transfers, sim.signaling, sim, probes_only)
        want = _outcome(reference_flow_table, sim.transfers, sim.signaling, sim, probes_only)
        assert got == want
        assert got[1]["trace/signaling_records"] > len(sim.signaling)

    @pytest.mark.parametrize("probes_only", [True, False])
    def test_empty_inputs(self, sim_small, probes_only):
        empty = (_transfers([]), _signaling([]))
        got = _outcome(build_flow_table, *empty, sim_small, probes_only)
        assert got == _outcome(reference_flow_table, *empty, sim_small, probes_only)
        assert got[0] == b""

    def test_zero_count_intervals_contribute_nothing(self, pool, sim_small):
        probe, remote = pool[0], pool[-1]
        signaling = _signaling([(probe, remote, 10.0, 9.5, 1.0, 60)])
        for build in (build_flow_table, reference_flow_table):
            flows, counters, _ = _outcome(build, _transfers([]), signaling, sim_small, True)
            assert flows == b""
            assert counters["trace/signaling_records"] == 0

    def test_negative_count_raises(self, pool, sim_small):
        probe, remote = pool[0], pool[-1]
        signaling = _signaling([(probe, remote, 10.0, 7.5, 1.0, 60)])
        for build in (build_flow_table, reference_flow_table):
            assert _outcome(build, _transfers([]), signaling, sim_small, True) is TraceError

    @pytest.mark.parametrize("signaled", [False, True])
    def test_unknown_address_raises(self, pool, sim_small, signaled):
        stranger = int(sim_small.hosts.rows["ip"].max()) + 1
        transfers = _transfers([(1.0, stranger, pool[0], 3000, int(PacketKind.VIDEO), 1e6)])
        signaling = _signaling([(stranger, pool[0], 1.0, 4.0, 1.0, 60)])
        if signaled:
            transfers = transfers[:0]
        else:
            signaling = signaling[:0]
        for build in (build_flow_table, reference_flow_table):
            assert _outcome(build, transfers, signaling, sim_small, True) is TraceError
