"""Unit tests for the workload subsystem: arrivals, flows, registry, replay."""

import hashlib
import random
import statistics

import pytest

from repro.errors import WorkloadSpecError
from repro.packet.flows import FLOW_PERIOD
from repro.traffic.distributions import FixedSizeDistribution
from repro.workloads import (
    ChurnFlows,
    ClosedLoopFlows,
    GenerativeWorkload,
    HeavyTailFlows,
    IncastArrivals,
    MMPPArrivals,
    PcapReplayWorkload,
    PoissonArrivals,
    RoundRobinFlows,
    UniformArrivals,
    get_workload,
    register_workload,
    summarize,
    synthetic_enterprise_capture,
    workload_names,
)
from repro.workloads.registry import WORKLOAD_REGISTRY

TARGET_GAP_NS = 1_000.0


def _gaps(model, count=4000, seed=1):
    sampler = model.sampler(random.Random(seed))
    return [sampler.next_gap_ns(TARGET_GAP_NS) for _ in range(count)]


class TestArrivalModels:
    def test_uniform_is_deterministic(self):
        assert set(_gaps(UniformArrivals(), count=10)) == {TARGET_GAP_NS}

    @pytest.mark.parametrize(
        "model",
        [
            PoissonArrivals(),
            MMPPArrivals(),
            IncastArrivals(),
        ],
    )
    def test_long_run_mean_preserved(self, model):
        # MMPP needs many state cycles (residence=64 events) to converge.
        gaps = _gaps(model, count=30_000)
        assert statistics.mean(gaps) == pytest.approx(TARGET_GAP_NS, rel=0.10)

    def test_poisson_cv_near_one(self):
        gaps = _gaps(PoissonArrivals())
        cv = statistics.pstdev(gaps) / statistics.mean(gaps)
        assert cv == pytest.approx(1.0, abs=0.1)

    def test_mmpp_mean_preserved_with_silent_off_state(self):
        # on_fraction * burst_factor == 1 makes the OFF state emit
        # nothing; the sampler must model it as silent dwells, not run
        # permanently at the burst rate.
        model = MMPPArrivals(on_fraction=0.25, burst_factor=4.0)
        gaps = _gaps(model, count=60_000)
        assert statistics.mean(gaps) == pytest.approx(TARGET_GAP_NS, rel=0.15)

    def test_mmpp_burstier_than_poisson(self):
        mmpp = _gaps(MMPPArrivals(on_fraction=0.2, burst_factor=4.0))
        poisson = _gaps(PoissonArrivals())
        cv_mmpp = statistics.pstdev(mmpp) / statistics.mean(mmpp)
        cv_poisson = statistics.pstdev(poisson) / statistics.mean(poisson)
        assert cv_mmpp > cv_poisson

    def test_incast_epoch_structure(self):
        model = IncastArrivals(fan_in=8, duty=0.1)
        gaps = _gaps(model, count=16)
        small = TARGET_GAP_NS * 0.1
        # 7 compressed gaps, then one long silent gap, then repeat.
        assert gaps[:7] == [small] * 7
        assert gaps[7] > TARGET_GAP_NS
        assert gaps[8:15] == [small] * 7
        assert sum(gaps[:8]) == pytest.approx(8 * TARGET_GAP_NS)

    def test_fan_in_of_one_degenerates_to_uniform(self):
        # The degenerate edge: every "burst" is a single arrival, so
        # each gap is a closing gap of exactly one target — uniform
        # pacing, mean preserved, no off-by-one epoch arithmetic.
        gaps = _gaps(IncastArrivals(fan_in=1), count=32)
        assert set(gaps) == {TARGET_GAP_NS}

    def test_validation(self):
        with pytest.raises(WorkloadSpecError):
            MMPPArrivals(on_fraction=0.0)
        with pytest.raises(WorkloadSpecError):
            MMPPArrivals(on_fraction=0.5, burst_factor=3.0)  # 0.5*3 > 1
        with pytest.raises(WorkloadSpecError):
            MMPPArrivals(burst_factor=0.5)
        with pytest.raises(WorkloadSpecError):
            IncastArrivals(fan_in=0)
        with pytest.raises(WorkloadSpecError):
            IncastArrivals(duty=1.0)


class TestFlowModels:
    def test_round_robin_cycles(self):
        sampler = RoundRobinFlows(flow_count=4).sampler(random.Random(0))
        flows = [sampler.next_flow() for _ in range(8)]
        assert flows[:4] == flows[4:]
        assert len(set(flows[:4])) == 4

    def test_heavy_tail_concentrates_on_elephants(self):
        model = HeavyTailFlows(flow_count=1000, elephant_fraction=0.01, elephant_weight=0.9)
        sampler = model.sampler(random.Random(2))
        counts = {}
        for _ in range(5000):
            flow = sampler.next_flow()
            counts[flow] = counts.get(flow, 0) + 1
        top10 = sorted(counts.values(), reverse=True)[:10]
        assert sum(top10) / 5000 == pytest.approx(0.9, abs=0.05)

    def test_churn_never_repeats_tuples(self):
        sampler = ChurnFlows().sampler(random.Random(3))
        flows = [sampler.next_flow() for _ in range(2000)]
        assert len(set(flows)) == 2000

    def test_churn_flowlets(self):
        sampler = ChurnFlows(packets_per_flow=3).sampler(random.Random(3))
        flows = [sampler.next_flow() for _ in range(9)]
        assert flows[0] == flows[1] == flows[2]
        assert flows[3] == flows[4] == flows[5]
        assert flows[0] != flows[3]

    def test_validation(self):
        with pytest.raises(WorkloadSpecError):
            RoundRobinFlows(flow_count=0)
        with pytest.raises(WorkloadSpecError):
            HeavyTailFlows(elephant_fraction=1.5)
        with pytest.raises(WorkloadSpecError):
            ChurnFlows(packets_per_flow=0)

    @pytest.mark.parametrize("model", [RoundRobinFlows, HeavyTailFlows, ClosedLoopFlows])
    def test_fixed_population_stops_at_the_generator_period(self, model):
        assert model(flow_count=FLOW_PERIOD).nominal_flow_count() == FLOW_PERIOD
        with pytest.raises(WorkloadSpecError, match="flow_count"):
            model(flow_count=FLOW_PERIOD + 1)
        with pytest.raises(WorkloadSpecError, match="flow_count"):
            model(flow_count=0)


class TestRegistry:
    def test_required_workloads_present(self):
        names = workload_names()
        for required in (
            "bursty-mmpp",
            "incast-sync",
            "heavy-tail",
            "flood-churn",
            "rate-ramp",
            "pcap-replay",
        ):
            assert required in names
        assert len(names) >= 6

    def test_unknown_name_raises(self):
        with pytest.raises(WorkloadSpecError):
            get_workload("nope")

    def test_duplicate_registration_rejected(self):
        name = workload_names()[0]
        with pytest.raises(WorkloadSpecError):
            register_workload(name, WORKLOAD_REGISTRY[name])

    def test_lookups_return_fresh_specs(self):
        assert get_workload("bursty-mmpp") is not get_workload("bursty-mmpp")

    @pytest.mark.parametrize("name", sorted(WORKLOAD_REGISTRY))
    def test_trace_deterministic_for_seed(self, name):
        spec = get_workload(name)
        first = [p.as_tuple() for p in spec.trace(7, 64)]
        second = [p.as_tuple() for p in get_workload(name).trace(7, 64)]
        assert first == second
        assert len(first) == 64

    @pytest.mark.parametrize(
        "name", [n for n in sorted(WORKLOAD_REGISTRY) if n != "pcap-replay"]
    )
    def test_different_seeds_differ(self, name):
        spec = get_workload(name)
        first = [p.as_tuple() for p in spec.trace(7, 64)]
        second = [p.as_tuple() for p in spec.trace(8, 64)]
        assert first != second

    @pytest.mark.parametrize("name", sorted(WORKLOAD_REGISTRY))
    def test_summary_statistics_sane(self, name):
        summary = get_workload(name).summary(seed=11, max_packets=400)
        assert summary.packets == 400
        assert summary.mean_rate_gbps > 0
        assert 64 <= summary.mean_frame_bytes <= 1514
        assert 0.0 <= summary.small_packet_fraction <= 1.0
        assert summary.distinct_flows >= 1

    def test_workload_statistics_match_design(self):
        assert get_workload("flood-churn").summary(max_packets=300).small_packet_fraction == 1.0
        incast = get_workload("incast-sync").summary(max_packets=2000)
        poisson = get_workload("enterprise-poisson").summary(max_packets=2000)
        assert incast.burstiness_cv > poisson.burstiness_cv > 0.5


class TestGenerativeWorkload:
    def test_needs_size_distribution(self):
        with pytest.raises(WorkloadSpecError):
            GenerativeWorkload(name="x", sizes=None)

    def test_packet_source_streams_frames(self):
        spec = GenerativeWorkload(name="x", sizes=FixedSizeDistribution(256))
        source = spec.packet_source(seed=3)
        packet = source.next_packet()
        assert packet.wire_length == 256
        assert source.packets_built == 1

    def test_classic_workload_view(self):
        spec = GenerativeWorkload(name="x", sizes=FixedSizeDistribution(256))
        workload = spec.workload()
        assert workload.name == "x"
        assert workload.mean_frame_bytes() == 256

    def test_traffic_model_carries_schedule_rescaled(self):
        spec = get_workload("rate-ramp")
        model = spec.traffic_model(rate_gbps=14.0)
        assert model.schedule is not None
        assert model.schedule.mean_gbps() == pytest.approx(14.0)

    def test_with_rate_rescales_traffic_model(self):
        # The peak-goodput search probes rates via ScenarioConfig.with_rate;
        # scheduled and replay workloads must follow the probed rate.
        from repro.experiments.scenarios import workload_scenario

        scenario = workload_scenario(workload="rate-ramp")
        probed = scenario.with_rate(3.5)
        assert probed.traffic_model.schedule.mean_gbps() == pytest.approx(3.5)

        replay = workload_scenario(workload="pcap-replay")
        spec = get_workload("pcap-replay")
        fast = replay.with_rate(spec.nominal_rate_gbps() * 2)
        native = list(replay.traffic_model.stream_factory(0))
        doubled = list(fast.traffic_model.stream_factory(0))
        assert doubled[-1][0] == pytest.approx(native[-1][0] / 2, rel=0.01)


class TestPcapReplay:
    def test_synthetic_capture_is_deterministic(self):
        first = synthetic_enterprise_capture(64, seed=5)
        second = synthetic_enterprise_capture(64, seed=5)
        assert [r.data for r in first] == [r.data for r in second]

    def test_default_synthetic_capture_is_pinned(self):
        # The registered pcap-replay workload replays exactly these
        # records; a change to the capture builder would move every
        # pcap-replay cell.
        digest = hashlib.sha256()
        for record in synthetic_enterprise_capture():
            digest.update(b"%d %d " % (record.ts_sec, record.ts_usec))
            digest.update(record.data)
        assert digest.hexdigest() == (
            "5d2db3bd885d3a43dab3554c7bf4fddedbcfc501b3c4a107f25bd5264fc8e6dc"
        )

    def test_from_file_round_trip(self, tmp_path):
        from repro.packet.pcap import write_pcap

        records = synthetic_enterprise_capture(32, seed=9)
        path = tmp_path / "cap.pcap"
        write_pcap(path, [(r.timestamp, r.data) for r in records])
        spec = PcapReplayWorkload.from_file(path)
        assert len(spec.records) == 32
        trace = spec.trace(0, 32)
        assert [p.size_bytes for p in trace] == [len(r.data) for r in records]

    def test_trace_loops_past_capture_length(self):
        spec = PcapReplayWorkload.synthetic(packet_count=16, seed=2)
        trace = spec.trace(0, 40)
        assert len(trace) == 40
        assert trace[16].size_bytes == trace[0].size_bytes
        times = [p.time_ns for p in trace]
        assert times == sorted(times)

    def test_rate_rescaling_changes_spacing(self):
        spec = PcapReplayWorkload.synthetic(packet_count=64, seed=2, rate_gbps=8.0)
        native = spec.trace(0, 64)
        doubled = spec.trace(0, 64, rate_gbps=16.0)
        assert doubled[-1].time_ns == pytest.approx(native[-1].time_ns / 2, rel=0.01)

    def test_rejects_empty_capture(self):
        with pytest.raises(WorkloadSpecError):
            PcapReplayWorkload([])


class TestSummarize:
    def test_empty_trace_rejected(self):
        with pytest.raises(WorkloadSpecError):
            summarize([])

    def test_row_shape(self):
        summary = get_workload("enterprise-poisson").summary(max_packets=100)
        row = summary.as_row()
        assert set(row) == {
            "packets",
            "duration_us",
            "mean_rate_gbps",
            "mean_frame_bytes",
            "small_packet_fraction",
            "distinct_flows",
            "burstiness_cv",
            "peak_to_mean",
        }
