"""The invariant engine: clean runs pass, tampered runs are caught."""

from dataclasses import replace

import pytest

from repro.experiments.runner import ExperimentRunner, run_observer
from repro.experiments.scenarios import (
    explicit_drop_scenario,
    fw_nat_lb_10ge,
    workload_scenario,
)
from repro.validation.engine import ValidationObserver, _TimeMonitor, check_scenario
from repro.validation.invariants import (
    GoodputBound,
    LatencyCausality,
    PacketConservation,
    ParkingSlotLeak,
    RegisterBounds,
    RetransmitAccounting,
)


def _small(scenario, duration_us=600.0):
    return replace(scenario, duration_us=duration_us, warmup_us=duration_us / 4)


@pytest.fixture(scope="module")
def observed_runs():
    """Both deployments of a small scenario, with observations retained."""
    observer = ValidationObserver(keep_observations=True)
    with run_observer(observer):
        ExperimentRunner().compare(_small(fw_nat_lb_10ge(8.0)))
    assert observer.runs_checked == 2
    return observer


def _payloadpark_obs(observer):
    return next(
        obs for obs in observer.observations if obs.deployment == "payloadpark"
    )


class TestCleanRuns:
    def test_no_violations_on_a_healthy_scenario(self, observed_runs):
        assert observed_runs.violations == []

    def test_check_scenario_reports_both_deployments(self):
        report = check_scenario(_small(fw_nat_lb_10ge(6.0), duration_us=400.0))
        assert report.ok
        assert report.runs_checked == 2
        assert report.as_dict()["ok"] is True

    def test_explicit_drop_scenario_is_clean(self):
        report = check_scenario(_small(explicit_drop_scenario(1, True), 400.0))
        assert report.ok, [str(v) for v in report.violations]

    def test_event_loops_are_drained(self, observed_runs):
        for obs in observed_runs.observations:
            assert obs.drained
            assert obs.residual_events == 0
            assert obs.time_violations == 0


class TestDetection:
    """Each invariant must fire when its condition is deliberately broken."""

    def test_conservation_detects_unaccounted_packets(self, observed_runs):
        obs = _payloadpark_obs(observed_runs)
        gen = obs.topology.attachments[0].pktgen
        gen.packets_sent += 1
        try:
            violations = PacketConservation().check(obs)
        finally:
            gen.packets_sent -= 1
        assert violations and violations[0].check == "packet-conservation"
        assert "delta 1" in violations[0].message

    def test_conservation_requires_a_drained_loop(self, observed_runs):
        obs = _payloadpark_obs(observed_runs)
        tampered = replace(obs, drained=False, residual_events=7)
        (violation,) = PacketConservation().check(tampered)
        assert "not drained" in violation.message

    def test_goodput_bound_detects_packet_inflation(self, observed_runs):
        obs = _payloadpark_obs(observed_runs)
        gen = obs.topology.attachments[0].pktgen
        original = gen.packets_received
        gen.packets_received = gen.packets_sent + 5
        try:
            violations = GoodputBound().check(obs)
        finally:
            gen.packets_received = original
        assert any("received" in v.message for v in violations)

    def test_goodput_bound_detects_goodput_above_offered(self, observed_runs):
        obs = _payloadpark_obs(observed_runs)
        report = replace(
            obs.reports[0], delivered_goodput_gbps=obs.reports[0].offered_gbps * 2 + 1
        )
        tampered = replace(obs, reports=[report])
        assert any(
            "exceeds offered load" in v.message for v in GoodputBound().check(tampered)
        )

    def test_latency_causality_detects_time_travel(self, observed_runs):
        obs = _payloadpark_obs(observed_runs)
        tampered = replace(obs, time_violations=3)
        assert any(
            "backwards" in v.message for v in LatencyCausality().check(tampered)
        )

    def test_latency_causality_detects_mean_above_max(self, observed_runs):
        obs = _payloadpark_obs(observed_runs)
        report = replace(obs.reports[0], avg_latency_us=10.0, p99_latency_us=5.0,
                         max_latency_us=5.0)
        tampered = replace(obs, reports=[report])
        assert any("exceeds" in v.message for v in LatencyCausality().check(tampered))

    def test_latency_causality_detects_acausal_samples(self, observed_runs):
        obs = _payloadpark_obs(observed_runs)
        report = replace(obs.reports[0], max_latency_us=obs.horizon_ns / 1_000.0 + 1)
        tampered = replace(obs, reports=[report])
        assert any("horizon" in v.message for v in LatencyCausality().check(tampered))

    def test_register_bounds_detects_out_of_range_occupancy(self, observed_runs):
        obs = _payloadpark_obs(observed_runs)
        table = next(iter(obs.program.lookup_tables.values()))
        original = table.occupancy
        table.occupancy = lambda: table.entries + 1
        try:
            violations = RegisterBounds().check(obs)
        finally:
            del table.occupancy
        assert any("occupancy" in v.message for v in violations)
        assert table.occupancy() == original()

    def test_parking_slot_leak_detects_counter_mismatch(self, observed_runs):
        obs = _payloadpark_obs(observed_runs)
        counters = next(iter(obs.program.counters.counters.values()))
        counters.splits += 1
        try:
            violations = ParkingSlotLeak().check(obs)
        finally:
            counters.splits -= 1
        assert violations and violations[0].check == "parking-slot-leak"


@pytest.fixture(scope="module")
def closed_loop_runs():
    """Both deployments of a closed-loop scenario, observations retained."""
    observer = ValidationObserver(keep_observations=True)
    with run_observer(observer):
        ExperimentRunner(time_scale=0.1).compare(workload_scenario("rpc-fanout"))
    assert observer.runs_checked == 2
    return observer


class TestRetransmitAccounting:
    """The goodput/throughput split survives adversarial counter edits."""

    def test_clean_closed_loop_run_passes(self, closed_loop_runs):
        assert closed_loop_runs.violations == []
        for obs in closed_loop_runs.observations:
            assert RetransmitAccounting().check(obs) == []

    def test_detects_duplicate_double_counted_into_goodput(self, closed_loop_runs):
        # The injected bug: a duplicate delivery's useful bytes are
        # credited to goodput as well (the exact double-count the
        # goodput-vs-throughput split exists to prevent).
        obs = _payloadpark_obs(closed_loop_runs)
        gen = obs.topology.attachments[0].pktgen
        gen.useful_bytes_received += 42
        try:
            violations = RetransmitAccounting().check(obs)
        finally:
            gen.useful_bytes_received -= 42
        assert violations
        assert any("goodput bytes" in v.message for v in violations)
        assert all(v.check == "retransmit-accounting" for v in violations)

    def test_detects_uncounted_retransmission(self, closed_loop_runs):
        obs = _payloadpark_obs(closed_loop_runs)
        transport = obs.topology.attachments[0].pktgen.transport
        transport.retx_segments += 1
        try:
            violations = RetransmitAccounting().check(obs)
        finally:
            transport.retx_segments -= 1
        assert any("retransmit count" in v.message or "first+retx" in v.message
                   for v in violations)

    def test_detects_uncounted_retransmitted_bytes(self):
        observer = ValidationObserver(keep_observations=True)
        with run_observer(observer):
            ExperimentRunner(time_scale=0.1).compare(workload_scenario("incast-collapse"))
        assert observer.violations == []
        obs = _payloadpark_obs(observer)
        gen = obs.topology.attachments[0].pktgen
        assert gen.retransmitted_bytes > 0  # the collapse retransmits
        gen.transport.retx_bytes -= 1
        violations = RetransmitAccounting().check(obs)
        assert [v.details["identity"] for v in violations] == [
            "node vs transport retransmit bytes"
        ]

    def test_detects_phantom_unique_deliveries(self, closed_loop_runs):
        obs = _payloadpark_obs(closed_loop_runs)
        transport = obs.topology.attachments[0].pktgen.transport
        original = transport.unique_delivered_segments
        transport.unique_delivered_segments = transport.distinct_segments_sent + 3
        try:
            violations = RetransmitAccounting().check(obs)
        finally:
            transport.unique_delivered_segments = original
        assert any("ever sent" in v.message for v in violations)

    def test_open_loop_generators_must_report_zero_retransmits(self, observed_runs):
        obs = _payloadpark_obs(observed_runs)
        gen = obs.topology.attachments[0].pktgen
        assert RetransmitAccounting().check(obs) == []
        gen.retransmitted_packets += 1
        try:
            violations = RetransmitAccounting().check(obs)
        finally:
            gen.retransmitted_packets -= 1
        assert violations and "open-loop" in violations[0].message


class TestTimeMonitor:
    def test_counts_backward_steps_only(self):
        monitor = _TimeMonitor()
        for when in (0, 5, 5, 9):
            monitor(when)
        assert monitor.violations == 0
        monitor(3)
        monitor(12)
        monitor(11)
        assert monitor.violations == 2
