"""Traffic-generator behavior under time-varying schedules and replay streams."""

import pytest

from repro.netsim.eventloop import EventLoop
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.trafficgen_node import TrafficGenNode
from repro.traffic.pktgen import PktGenConfig
from repro.traffic.workload import Workload
from repro.workloads import (
    PcapReplayWorkload,
    PoissonArrivals,
    TraceSchedule,
    TrafficModel,
    get_workload,
)


class _Collector(Node):
    def __init__(self, env, name="collector"):
        super().__init__(env, name)
        self.received = []

    def handle_packet(self, packet, port):
        self.received.append((self.env.now, packet))


def _wired_pktgen(traffic_model=None, rate_gbps=8.0, burst_size=4, seed=42):
    env = EventLoop()
    config = PktGenConfig(
        rate_gbps=rate_gbps,
        workload=Workload.fixed_size(512),
        burst_size=burst_size,
        seed=seed,
    )
    pktgen = TrafficGenNode(env, config, tx_ports=[0], traffic_model=traffic_model)
    sink = _Collector(env)
    Link(env, pktgen, 0, sink, 0, bandwidth_gbps=1000.0)
    return env, pktgen, sink


def _tx_times(pktgen_env_sink, duration_ns):
    env, pktgen, sink = pktgen_env_sink
    pktgen.start(duration_ns)
    env.run_until(duration_ns + 100_000)
    return [packet.meta["tx_ns"] for _t, packet in sink.received]


class TestConstantPathUnchanged:
    def test_no_model_matches_legacy_pacing(self):
        times = _tx_times(_wired_pktgen(), duration_ns=200_000)
        assert times, "constant path must emit packets"
        # Bursts of 4 x 512B at 8 Gbps: one burst every 2048 ns.
        bursts = sorted(set(times))
        gaps = [b - a for a, b in zip(bursts, bursts[1:])]
        assert all(gap == 2048 for gap in gaps)


class TestScheduledGeneration:
    def test_ramp_changes_gaps_mid_run(self):
        # 2 Gbps for the first 100 us, then ramps to 8 Gbps: inter-burst
        # gaps in the late window must be ~4x tighter than early ones.
        schedule = TraceSchedule.steps([(100_000, 2.0), (100_000, 8.0)])
        env, pktgen, sink = _wired_pktgen(TrafficModel(schedule=schedule))
        times = _tx_times((env, pktgen, sink), duration_ns=200_000)
        early = sorted({t for t in times if t < 90_000})
        late = sorted({t for t in times if t >= 110_000})
        early_gap = (early[-1] - early[0]) / (len(early) - 1)
        late_gap = (late[-1] - late[0]) / (len(late) - 1)
        assert early_gap == pytest.approx(4 * late_gap, rel=0.10)

    def test_zero_rate_phase_emits_no_packets(self):
        schedule = TraceSchedule.steps([(50_000, 8.0), (100_000, 0.0), (50_000, 8.0)])
        env, pktgen, sink = _wired_pktgen(TrafficModel(schedule=schedule))
        times = _tx_times((env, pktgen, sink), duration_ns=200_000)
        silent = [t for t in times if 50_000 <= t < 150_000]
        assert not silent
        assert any(t < 50_000 for t in times)
        assert any(t >= 150_000 for t in times)

    def test_run_ending_inside_silent_phase_stops_cleanly(self):
        schedule = TraceSchedule.steps([(20_000, 8.0), (1_000_000, 0.0)])
        env, pktgen, sink = _wired_pktgen(TrafficModel(schedule=schedule))
        times = _tx_times((env, pktgen, sink), duration_ns=100_000)
        assert all(t < 20_000 for t in times)
        assert env.pending_events == 0

    def test_ramp_from_zero_is_not_starved(self):
        # Regression: the pacer used to quote the instantaneous (~zero)
        # rate at the foot of the ramp and sleep ~forever; integral
        # pacing emits the full offered volume (~100 kB here).
        schedule = TraceSchedule.ramp(0.0, 8.0, 200_000)
        env, pktgen, sink = _wired_pktgen(TrafficModel(schedule=schedule))
        times = _tx_times((env, pktgen, sink), duration_ns=200_000)
        assert len(times) >= 150  # the starved pacer managed a handful

    def test_schedule_starting_silent_waits_for_first_active_phase(self):
        schedule = TraceSchedule.steps([(50_000, 0.0), (150_000, 8.0)])
        env, pktgen, sink = _wired_pktgen(TrafficModel(schedule=schedule))
        times = _tx_times((env, pktgen, sink), duration_ns=200_000)
        assert times
        assert min(times) >= 50_000

    def test_repeating_schedule_with_leading_silence(self):
        schedule = TraceSchedule.steps([(50_000, 0.0), (50_000, 8.0)], repeat=True)
        env, pktgen, sink = _wired_pktgen(TrafficModel(schedule=schedule))
        times = _tx_times((env, pktgen, sink), duration_ns=200_000)
        assert times
        # Every emission falls inside an active half-cycle.
        assert all(t % 100_000 >= 50_000 for t in times)

    def test_nonrepeating_schedule_draining_to_zero_stops_cleanly(self):
        # The offered load runs dry mid-run: the pacer must halt rather
        # than schedule an infinitely-deferred burst.
        schedule = TraceSchedule.steps([(30_000, 8.0), (170_000, 0.0)])
        env, pktgen, sink = _wired_pktgen(TrafficModel(schedule=schedule))
        times = _tx_times((env, pktgen, sink), duration_ns=200_000)
        assert times
        assert max(times) < 30_000
        assert env.pending_events == 0

    def test_current_rate_tracks_schedule(self):
        schedule = TraceSchedule.ramp(2.0, 12.0, 100_000)
        env, pktgen, _sink = _wired_pktgen(TrafficModel(schedule=schedule))
        pktgen.start(100_000)
        env.run_until(50_000)
        assert pktgen.current_rate_gbps() == pytest.approx(7.0, rel=0.05)


class TestArrivalPerturbation:
    def test_poisson_gaps_are_irregular_but_mean_preserving(self):
        env, pktgen, sink = _wired_pktgen(TrafficModel(arrivals=PoissonArrivals()))
        times = _tx_times((env, pktgen, sink), duration_ns=2_000_000)
        bursts = sorted(set(times))
        gaps = [b - a for a, b in zip(bursts, bursts[1:])]
        assert len(set(gaps)) > 10  # jittered, not the single legacy gap
        mean_gap = sum(gaps) / len(gaps)
        assert mean_gap == pytest.approx(2048, rel=0.15)


class TestSeedDeterminism:
    def _frames(self, seed):
        spec = get_workload("bursty-mmpp")
        model = spec.traffic_model(8.0)
        env, pktgen, sink = _wired_pktgen(model, seed=seed)
        pktgen.start(100_000)
        env.run_until(200_000)
        return [(t, p.to_bytes()) for t, p in sink.received]

    def test_same_seed_byte_identical_trace(self):
        assert self._frames(9) == self._frames(9)

    def test_different_seed_differs(self):
        assert self._frames(9) != self._frames(10)


class TestStreamReplay:
    def test_replays_captured_spacing_and_loops(self):
        spec = PcapReplayWorkload.synthetic(packet_count=16, seed=2, rate_gbps=8.0)
        model = spec.traffic_model(8.0)
        env, pktgen, sink = _wired_pktgen(model)
        pktgen.start(2_000_000)
        env.run_until(2_100_000)
        assert pktgen.packets_sent > 16  # looped at least once
        sizes = [p.wire_length for _t, p in sink.received[:16]]
        assert sizes == [len(r.data) for r in spec.records]

    def test_stream_stops_at_duration(self):
        spec = PcapReplayWorkload.synthetic(packet_count=16, seed=2, rate_gbps=8.0)
        env, pktgen, sink = _wired_pktgen(spec.traffic_model(8.0))
        pktgen.start(10_000)
        env.run_until(1_000_000)
        assert all(p.meta["tx_ns"] < 10_000 for _t, p in sink.received)

    def test_an_empty_stream_stops_the_generator(self):
        # A stream that is dry on its first restart cannot loop.
        env, pktgen, sink = _wired_pktgen(TrafficModel(stream_factory=lambda seed: iter(())))
        pktgen.start(10_000_000)
        env.run_until(11_000_000)
        assert pktgen.packets_sent == 0 and not pktgen._running
