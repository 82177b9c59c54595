"""End-to-end simulation tests: traffic generator ↔ switch ↔ NF server.

These tests exercise the whole stack (dataplane program, discrete-event
links, NIC/PCIe models, NF framework) at small scale and check the
paper's qualitative claims: PayloadPark keeps goodput climbing past the
baseline's saturation point, saves PCIe bandwidth at every rate, and
does not hurt latency below saturation.
"""

import pytest

from repro.experiments.quickstart import quickstart_scenario
from repro.experiments.runner import DeploymentKind, ExperimentRunner
from repro.experiments.scenarios import (
    explicit_drop_scenario,
    fw_nat_lb_10ge,
    fw_nat_lb_10ge_recirculation,
    small_packet_40ge,
)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


def _shrink(scenario, duration_us=2_500.0, warmup_us=700.0):
    """Shorten a scenario so integration tests stay fast."""
    from dataclasses import replace

    return replace(scenario, duration_us=duration_us, warmup_us=warmup_us)


class TestBelowSaturation:
    def test_deployments_equivalent_below_saturation(self, runner):
        scenario = _shrink(quickstart_scenario(send_rate_gbps=6.0))
        result = runner.compare(scenario)
        baseline, payloadpark = result.comparison.baseline, result.comparison.payloadpark
        assert baseline.healthy and payloadpark.healthy
        assert payloadpark.goodput_to_nf_gbps == pytest.approx(
            baseline.goodput_to_nf_gbps, rel=0.05
        )
        assert payloadpark.premature_evictions == 0

    def test_no_latency_penalty_below_saturation(self, runner):
        scenario = _shrink(quickstart_scenario(send_rate_gbps=6.0))
        result = runner.compare(scenario)
        comparison = result.comparison
        assert comparison.payloadpark.avg_latency_us <= comparison.baseline.avg_latency_us * 1.10

    def test_pcie_savings_at_all_rates(self, runner):
        for rate in (4.0, 8.0):
            scenario = _shrink(quickstart_scenario(send_rate_gbps=rate))
            comparison = runner.compare(scenario).comparison
            assert comparison.pcie_savings_percent > 5.0


class TestBeyondBaselineSaturation:
    def test_payloadpark_gains_goodput_when_link_saturates(self, runner):
        scenario = _shrink(fw_nat_lb_10ge(send_rate_gbps=10.8))
        comparison = runner.compare(scenario).comparison
        assert comparison.goodput_gain_percent > 3.0
        # The baseline's switch -> NF link is saturated, so it drops packets
        # and its latency spikes; PayloadPark does not.
        assert not comparison.baseline.healthy
        assert comparison.payloadpark.avg_latency_us < comparison.baseline.avg_latency_us

    def test_recirculation_increases_gain(self, runner):
        rate = 11.5
        plain = runner.compare(_shrink(fw_nat_lb_10ge(send_rate_gbps=rate))).comparison
        recirc = runner.compare(
            _shrink(fw_nat_lb_10ge_recirculation(send_rate_gbps=rate))
        ).comparison
        assert recirc.goodput_gain_percent > plain.goodput_gain_percent

    def test_small_packets_40ge_baseline_caps_first(self, runner):
        scenario = _shrink(small_packet_40ge(send_rate_gbps=38.0))
        comparison = runner.compare(scenario).comparison
        assert comparison.payloadpark.goodput_to_nf_gbps > comparison.baseline.goodput_to_nf_gbps


class TestExplicitDropsAndEviction:
    def test_firewall_drops_leave_payloads_for_evictor(self, runner):
        scenario = _shrink(
            explicit_drop_scenario(
                expiry_threshold=2, explicit_drop=False, blacklisted_fraction=0.1,
                send_rate_gbps=8.0,
            )
        )
        report = runner.run_deployment(scenario, DeploymentKind.PAYLOADPARK)
        assert report.evictions > 0
        assert report.explicit_drops == 0

    def test_explicit_drops_reclaim_instead_of_evicting(self, runner):
        scenario = _shrink(
            explicit_drop_scenario(
                expiry_threshold=10, explicit_drop=True, blacklisted_fraction=0.1,
                send_rate_gbps=8.0,
            )
        )
        report = runner.run_deployment(scenario, DeploymentKind.PAYLOADPARK)
        assert report.explicit_drops > 0

    def test_conservative_eviction_without_explicit_drops_loses_goodput(self, runner):
        aggressive = _shrink(
            explicit_drop_scenario(2, False, blacklisted_fraction=0.1, send_rate_gbps=10.5)
        )
        conservative = _shrink(
            explicit_drop_scenario(10, False, blacklisted_fraction=0.1, send_rate_gbps=10.5)
        )
        fast = runner.run_deployment(aggressive, DeploymentKind.PAYLOADPARK)
        slow = runner.run_deployment(conservative, DeploymentKind.PAYLOADPARK)
        assert slow.split_disabled >= fast.split_disabled


class TestMultiServer:
    def test_two_servers_are_isolated_and_both_gain(self, runner):
        from repro.experiments.scenarios import multi_server_384b
        scenario = _shrink(multi_server_384b(server_count=2, send_rate_gbps=10.5))
        result = runner.compare(scenario)
        assert len(result.per_server) == 2
        for comparison in result.per_server:
            assert comparison.payloadpark.premature_evictions == 0
            assert (
                comparison.payloadpark.goodput_to_nf_gbps
                >= comparison.baseline.goodput_to_nf_gbps * 0.98
            )
