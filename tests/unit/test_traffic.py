"""Unit tests for traffic distributions, workloads and the packet factory."""

import random

import pytest

from repro.errors import WorkloadSpecError
from repro.traffic.distributions import (
    EmpiricalDistribution,
    FixedSizeDistribution,
    LognormalSizeDistribution,
    MAX_FRAME_BYTES,
    MIN_FRAME_BYTES,
    ParetoSizeDistribution,
    enterprise_datacenter_distribution,
    split_eligible_fraction,
)
from repro.traffic.pktgen import PacketFactory, PktGenConfig
from repro.traffic.workload import Workload


class TestDistributions:
    def test_fixed_size_always_returns_size(self):
        distribution = FixedSizeDistribution(512)
        rng = random.Random(0)
        assert {distribution.sample(rng) for _ in range(10)} == {512}
        assert distribution.mean() == 512

    def test_fixed_size_validates_range(self):
        with pytest.raises(WorkloadSpecError):
            FixedSizeDistribution(10)
        with pytest.raises(WorkloadSpecError):
            FixedSizeDistribution(5000)

    def test_empirical_cdf_monotone_and_normalized(self):
        distribution = EmpiricalDistribution([(100, 0.5), (1000, 0.5)])
        points = distribution.cdf_points()
        assert points[-1][1] == pytest.approx(1.0)
        assert points == sorted(points)

    def test_empirical_mean(self):
        distribution = EmpiricalDistribution([(100, 0.5), (300, 0.5)])
        assert distribution.mean() == pytest.approx(200.0)

    def test_empirical_sampling_matches_weights(self):
        distribution = EmpiricalDistribution([(100, 0.2), (1000, 0.8)])
        rng = random.Random(1)
        samples = [distribution.sample(rng) for _ in range(5000)]
        large_fraction = sum(1 for size in samples if size == 1000) / len(samples)
        assert large_fraction == pytest.approx(0.8, abs=0.03)

    def test_empirical_validation(self):
        with pytest.raises(WorkloadSpecError):
            EmpiricalDistribution([])
        with pytest.raises(WorkloadSpecError):
            EmpiricalDistribution([(100, -1.0)])
        with pytest.raises(WorkloadSpecError):
            EmpiricalDistribution([(10, 1.0)])

    def test_empirical_rejects_bad_weights(self):
        with pytest.raises(WorkloadSpecError):
            EmpiricalDistribution([(100, float("nan"))])
        with pytest.raises(WorkloadSpecError):
            EmpiricalDistribution([(100, float("inf"))])
        with pytest.raises(WorkloadSpecError):
            EmpiricalDistribution([(100, 0.5), (100, 0.5)])  # duplicate size

    def test_from_cdf_builds_equivalent_distribution(self):
        distribution = EmpiricalDistribution.from_cdf([(100, 0.2), (1000, 1.0)])
        assert distribution.cdf_points() == [(100, pytest.approx(0.2)), (1000, 1.0)]
        assert distribution.mean() == pytest.approx(0.2 * 100 + 0.8 * 1000)
        rng = random.Random(5)
        samples = [distribution.sample(rng) for _ in range(2000)]
        assert sum(1 for s in samples if s == 100) / 2000 == pytest.approx(0.2, abs=0.03)

    def test_from_cdf_validates_inputs(self):
        with pytest.raises(WorkloadSpecError):
            EmpiricalDistribution.from_cdf([])
        with pytest.raises(WorkloadSpecError):  # not sorted by size
            EmpiricalDistribution.from_cdf([(1000, 0.5), (100, 1.0)])
        with pytest.raises(WorkloadSpecError):  # CDF not increasing
            EmpiricalDistribution.from_cdf([(100, 0.8), (1000, 0.5)])
        with pytest.raises(WorkloadSpecError):  # value outside (0, 1]
            EmpiricalDistribution.from_cdf([(100, 0.0), (1000, 1.0)])
        with pytest.raises(WorkloadSpecError):
            EmpiricalDistribution.from_cdf([(100, 0.5), (1000, 1.5)])
        with pytest.raises(WorkloadSpecError):  # does not end at 1.0
            EmpiricalDistribution.from_cdf([(100, 0.2), (1000, 0.9)])
        with pytest.raises(WorkloadSpecError):  # duplicate size
            EmpiricalDistribution.from_cdf([(100, 0.2), (100, 1.0)])
        with pytest.raises(WorkloadSpecError):  # non-finite CDF value
            EmpiricalDistribution.from_cdf([(100, float("nan"))])

    def test_enterprise_distribution_matches_paper_statistics(self):
        distribution = enterprise_datacenter_distribution()
        assert distribution.mean() == pytest.approx(882, abs=25)
        assert split_eligible_fraction(distribution) == pytest.approx(0.70, abs=0.03)


class TestAnalyticDistributions:
    @pytest.mark.parametrize(
        "distribution",
        [ParetoSizeDistribution(), LognormalSizeDistribution()],
    )
    def test_samples_stay_in_frame_range(self, distribution):
        rng = random.Random(4)
        samples = [distribution.sample(rng) for _ in range(2000)]
        assert min(samples) >= MIN_FRAME_BYTES
        assert max(samples) <= MAX_FRAME_BYTES

    @pytest.mark.parametrize(
        "distribution",
        [ParetoSizeDistribution(), LognormalSizeDistribution()],
    )
    def test_numeric_mean_matches_sampling(self, distribution):
        rng = random.Random(4)
        sampled = sum(distribution.sample(rng) for _ in range(20_000)) / 20_000
        assert distribution.mean() == pytest.approx(sampled, rel=0.05)

    def test_pareto_is_small_packet_heavy(self):
        distribution = ParetoSizeDistribution(shape=1.3, scale=120.0)
        rng = random.Random(4)
        samples = [distribution.sample(rng) for _ in range(5000)]
        small = sum(1 for s in samples if s < 202) / len(samples)
        assert small > 0.4

    def test_cdf_points_monotone(self):
        for distribution in (ParetoSizeDistribution(), LognormalSizeDistribution()):
            points = distribution.cdf_points()
            values = [value for _size, value in points]
            assert values == sorted(values)
            assert points[-1] == (MAX_FRAME_BYTES, 1.0)

    def test_validation(self):
        with pytest.raises(WorkloadSpecError):
            ParetoSizeDistribution(shape=0)
        with pytest.raises(WorkloadSpecError):
            ParetoSizeDistribution(scale=-1)
        with pytest.raises(WorkloadSpecError):
            LognormalSizeDistribution(sigma=0)


class TestWorkload:
    def test_fixed_size_workload_pps(self):
        workload = Workload.fixed_size(500)
        assert workload.packets_per_second(4.0) == pytest.approx(1e6, rel=1e-3)

    def test_useful_fraction(self):
        workload = Workload.fixed_size(420)
        assert workload.useful_fraction() == pytest.approx(0.1)

    def test_blacklist_fraction_validation(self):
        with pytest.raises(WorkloadSpecError):
            Workload.fixed_size(500, blacklisted_fraction=1.5)

    def test_pcap_export_and_reimport(self, tmp_path):
        workload = Workload.enterprise()
        path = tmp_path / "enterprise.pcap"
        assert workload.export_pcap(path, packet_count=200) == 200
        reloaded = Workload.from_pcap(path)
        assert reloaded.mean_frame_bytes() == pytest.approx(
            workload.mean_frame_bytes(), rel=0.15
        )

    def test_pcap_export_writes_the_capture(self, tmp_path):
        from repro.packet.pcap import read_pcap

        workload = Workload.enterprise(flow_count=128)
        path = tmp_path / "capture.pcap"
        assert workload.export_pcap(path, 512, seed=20, rate_gbps=8.0) == 512
        assert read_pcap(path) == workload.capture(512, seed=20, rate_gbps=8.0)

    def test_capture_rejects_an_empty_count(self):
        with pytest.raises(WorkloadSpecError):
            Workload.enterprise().capture(0, seed=1, rate_gbps=8.0)


class TestPacketFactory:
    def _factory(self, **workload_kwargs):
        workload = Workload.enterprise(**workload_kwargs)
        return PacketFactory(PktGenConfig(rate_gbps=10.0, workload=workload, seed=3))

    def test_deterministic_given_seed(self):
        first = self._factory()
        second = self._factory()
        for _ in range(20):
            assert first.next_packet().to_bytes() == second.next_packet().to_bytes()

    def test_sizes_follow_workload(self):
        factory = PacketFactory(
            PktGenConfig(rate_gbps=10.0, workload=Workload.fixed_size(384), seed=1)
        )
        assert {factory.next_packet().wire_length for _ in range(10)} == {384}

    def test_blacklisted_fraction_marks_sources(self):
        factory = self._factory(blacklisted_fraction=0.5)
        blacklisted = 0
        for _ in range(400):
            packet = factory.next_packet()
            if str(packet.ip.src).startswith("192.168."):
                blacklisted += 1
        assert 0.4 < blacklisted / 400 < 0.6

    def test_flows_cycle_round_robin(self):
        factory = self._factory()
        flow_count = factory.config.workload.flows.flow_count
        first = factory.next_packet().five_tuple()
        for _ in range(flow_count - 1):
            factory.next_packet()
        assert factory.next_packet().five_tuple().dst_ip == first.dst_ip

    def test_config_validation(self):
        with pytest.raises(WorkloadSpecError):
            PktGenConfig(rate_gbps=0, workload=Workload.fixed_size(256))
        with pytest.raises(WorkloadSpecError):
            PktGenConfig(rate_gbps=1.0, workload=Workload.fixed_size(256), burst_size=0)
