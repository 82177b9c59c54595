"""Unit tests for the closed-loop transport engine.

The harness wires a :class:`TrafficGenNode` to a scriptable network: a
``delay_ns`` callable decides each frame's round-trip delay, or returns
``None`` to black-hole it.  That makes loss patterns, reordering and
duplication exactly reproducible, so each congestion-control mechanism
can be pinned in isolation.
"""

import pytest

from repro.errors import WorkloadSpecError
from repro.netsim.eventloop import EventLoop
from repro.netsim.trafficgen_node import TrafficGenNode
from repro.traffic.pktgen import PktGenConfig
from repro.workloads import ClosedLoopFlows, ClosedLoopWorkload

RTT_NS = 10_000


def _model(**overrides):
    defaults = dict(
        flow_count=1,
        segments_per_transfer=8,
        mss_bytes=256,
        initial_cwnd_segments=2,
        initial_ssthresh_segments=64,
        min_rto_ns=200_000,
        max_rto_ns=1_600_000,
        start_jitter_ns=0,
    )
    defaults.update(overrides)
    return ClosedLoopFlows(**defaults)


class _Wire:
    """Stands in for the generator's link: every frame goes to ``send``."""

    def __init__(self, send):
        self.send = send

    def transmit(self, packet, sender):
        self.send(packet)


class _Harness:
    """A generator node attached to a deterministic scriptable network."""

    def __init__(self, model, seed=1):
        self.env = EventLoop()
        spec = ClosedLoopWorkload(name="t", flows=model)
        config = PktGenConfig(
            rate_gbps=6.0, workload=spec.workload(), burst_size=4, seed=seed
        )
        self.node = TrafficGenNode(
            self.env, config, tx_ports=[0], traffic_model=spec.traffic_model()
        )
        self.transport = self.node.transport
        self.wire = []
        self.delay_ns = lambda packet: RTT_NS  # ideal fixed-RTT loop
        self.wire_link = _Wire(self._send)
        self.node.links[0] = self.wire_link

    def _send(self, packet):
        self.wire.append(packet)
        delay = self.delay_ns(packet)
        if delay is None:
            return  # black-holed
        self.env.schedule_in(delay, lambda: self.node.handle_packet(packet, 0))

    def run(self, duration_ns=2_000_000, drain_ns=2_000_000):
        self.node.start(duration_ns)
        self.env.run_until(self.env.now + duration_ns + drain_ns)

    def tx_log(self):
        return [
            (p.meta["tx_ns"], p.meta["cl_flow"], p.meta["cl_seq"],
             bool(p.meta.get("cl_retx")))
            for p in self.wire
        ]


class TestFlowModelValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"flow_count": 0},
            {"segments_per_transfer": 0},
            {"mss_bytes": 32},
            {"initial_cwnd_segments": 0},
            {"initial_ssthresh_segments": 1},
            {"max_cwnd_segments": 1, "initial_cwnd_segments": 2},
            {"dupack_threshold": 0},
            {"min_rto_ns": 0},
            {"min_rto_ns": 2_000_000, "max_rto_ns": 1_000_000},
            {"think_time_ns": -1},
            {"start_jitter_ns": -1},
        ],
    )
    def test_rejects_bad_parameters(self, overrides):
        with pytest.raises(WorkloadSpecError):
            _model(**overrides)

    def test_label_mentions_mode(self):
        assert "sync" in _model(sync_epochs=True).label()
        assert "async" in _model(sync_epochs=False).label()

    def test_workload_needs_closed_loop_flows(self):
        from repro.workloads import RoundRobinFlows

        with pytest.raises(WorkloadSpecError):
            ClosedLoopWorkload(name="t", flows=RoundRobinFlows())


class TestSlowStart:
    def test_window_doubles_per_round_trip(self):
        # cwnd=2 on an 8-segment transfer over a lossless 10 us loop:
        # rounds of 2, 4, 2 segments, one RTT apart (jitter pinned to 0,
        # so the first sends land on the 1 ns minimum-delay tick).
        h = _Harness(_model())
        h.run(duration_ns=25_000, drain_ns=50_000)
        times = [t for t, _f, _s, _r in h.tx_log()[:8]]
        assert times == [1, 1, RTT_NS + 1, RTT_NS + 1, RTT_NS + 1, RTT_NS + 1,
                         2 * RTT_NS + 1, 2 * RTT_NS + 1]

    def test_lossless_run_has_no_recovery_activity(self):
        h = _Harness(_model())
        h.run()
        t = h.transport
        assert t.retx_segments == 0
        assert t.fast_retransmits == 0
        assert t.timeouts == 0
        assert t.duplicate_segments == 0
        assert t.unique_delivered_segments == t.distinct_segments_sent
        assert t.epochs_completed >= 2

    def test_rtt_estimator_converges_on_the_loop_delay(self):
        h = _Harness(_model())
        h.run()
        conn = h.transport.flows[0]
        assert conn.srtt_ns == pytest.approx(RTT_NS, rel=0.05)
        # RTO sits on the configured floor (the RTT is microseconds).
        assert conn.rto_ns == pytest.approx(200_000)


class TestFastRetransmit:
    def test_single_loss_recovers_via_dup_acks(self):
        h = _Harness(_model(segments_per_transfer=16))
        dropped = []

        def delay(packet):
            if packet.meta["cl_seq"] == 5 and not packet.meta.get("cl_retx") \
                    and not dropped:
                dropped.append(packet)
                return None
            return RTT_NS

        h.delay_ns = delay
        h.run(duration_ns=100_000, drain_ns=300_000)
        t = h.transport
        assert t.fast_retransmits == 1
        assert t.timeouts == 0
        assert t.retx_segments == 1
        assert [s for _t, _f, s, retx in h.tx_log() if retx] == [5]
        # The retransmitted copy is the only copy that arrives: every
        # delivery is unique, and the loss cost no duplicate.
        assert t.duplicate_segments == 0
        assert t.unique_delivered_segments == t.distinct_segments_sent
        assert not t.flows[0].in_recovery
        assert t.epochs_completed >= 1  # recovery unblocked the transfer

    def test_karn_rule_excludes_retransmitted_sequences(self):
        # One segment, first copy black-holed: the only delivery is the
        # RTO retransmission, whose timing is ambiguous — it must not
        # feed the RTT estimator.
        h = _Harness(_model(segments_per_transfer=1))
        seen = []

        def delay(packet):
            if not seen:
                seen.append(packet)
                return None
            return RTT_NS

        h.delay_ns = delay
        h.run(duration_ns=205_000, drain_ns=400_000)
        t = h.transport
        assert t.timeouts == 1
        assert t.unique_delivered_segments == 1
        assert t.flows[0].srtt_ns is None


class TestTimeout:
    def test_blackhole_fires_backed_off_timeouts(self):
        h = _Harness(_model())
        h.delay_ns = lambda packet: None
        h.run(duration_ns=1_500_000, drain_ns=2_000_000)
        t = h.transport
        conn = t.flows[0]
        assert t.timeouts >= 2
        assert t.fast_retransmits == 0
        assert t.retx_segments == t.timeouts  # one head-of-line retx each
        assert t.unique_delivered_segments == 0
        assert conn.cwnd == 1.0
        # Exponential backoff: the RTO grew beyond the floor, capped.
        assert 200_000 < conn.rto_ns <= 1_600_000

    def test_timers_never_rearm_after_stop(self):
        h = _Harness(_model())
        h.delay_ns = lambda packet: None
        h.run(duration_ns=400_000, drain_ns=4_000_000)
        # Post-horizon the engine may not schedule anything: the loop
        # drains to empty instead of ticking RTO timers forever.
        assert h.env.pending_events == 0
        sent_after = h.transport.segments_sent
        h.env.run_until(h.env.now + 10_000_000)
        assert h.transport.segments_sent == sent_after


class TestDuplicateDeliveries:
    def test_second_copy_counts_as_throughput_not_goodput(self):
        # The network delivers every frame twice (a parked original
        # racing its retransmission, in miniature): the second copy of
        # each sequence number must land in the duplicate counters.
        h = _Harness(_model())

        def duplicate_delivery(packet):
            h.wire.append(packet)
            h.env.schedule_in(RTT_NS, lambda: h.node.handle_packet(packet, 0))
            h.env.schedule_in(RTT_NS + 5_000, lambda: h.node.handle_packet(packet, 0))

        h.wire_link.send = duplicate_delivery
        h.run(duration_ns=200_000, drain_ns=300_000)
        t = h.transport
        assert t.duplicate_segments > 0
        assert t.duplicate_segments == h.node.duplicate_packets_received
        assert t.unique_delivered_segments == h.node.packets_received - t.duplicate_segments
        assert h.node.useful_bytes_received == t.unique_delivered_useful_bytes
        # No loss happened, so recovery machinery stayed quiet even
        # though every frame arrived twice.
        assert t.timeouts == 0


class TestEpochs:
    def test_sync_epochs_barrier_on_the_slowest_flow(self):
        # Flow 1's loop is 5x slower; with the barrier on, no flow may
        # start transfer #2 until flow 1 finishes transfer #1.
        model = _model(flow_count=2, segments_per_transfer=4, sync_epochs=True)
        h = _Harness(model)
        h.delay_ns = lambda packet: RTT_NS * (1 + 4 * packet.meta["cl_flow"])
        h.run(duration_ns=1_000_000, drain_ns=1_000_000)
        log = h.tx_log()
        slow_done = max(
            t + 5 * RTT_NS for t, flow, seq, _r in log if flow == 1 and seq < 4
        )
        fast_restart = min(t for t, flow, seq, _r in log if flow == 0 and seq == 4)
        assert fast_restart >= slow_done
        assert h.transport.epochs_completed >= 1

    def test_async_epochs_restart_independently(self):
        model = _model(flow_count=2, segments_per_transfer=4, sync_epochs=False)
        h = _Harness(model)
        h.delay_ns = lambda packet: RTT_NS * (1 + 4 * packet.meta["cl_flow"])
        h.run(duration_ns=1_000_000, drain_ns=1_000_000)
        log = h.tx_log()
        slow_done = max(
            t + 5 * RTT_NS for t, flow, seq, _r in log if flow == 1 and seq < 4
        )
        fast_restart = min(t for t, flow, seq, _r in log if flow == 0 and seq == 4)
        assert fast_restart < slow_done  # no barrier: the fast flow laps


class TestDeterminism:
    def _log(self, seed):
        model = _model(flow_count=4, segments_per_transfer=8, start_jitter_ns=2_000)
        h = _Harness(model, seed=seed)
        h.run(duration_ns=300_000, drain_ns=300_000)
        return h.tx_log(), h.transport.state_summary()

    def test_same_seed_identical(self):
        assert self._log(3) == self._log(3)

    def test_different_seed_differs(self):
        assert self._log(3)[0] != self._log(4)[0]


class TestWorkloadSpecSurface:
    def test_describe_names_the_transport(self):
        spec = ClosedLoopWorkload(name="t", flows=_model())
        info = spec.describe()
        assert "NewReno" in info["transport"]
        assert info["epochs"] == "synchronized barrier"

