"""Acceptance tests for the observability plane (ISSUE 6).

One fully-instrumented chaos run (enterprise workload, FW->NAT->LB
chain, link-flap fault profile, PayloadPark deployment) pins the three
acceptance criteria end to end:

* the time-series export shows the goodput dip inside the fault
  windows,
* the Chrome-loadable trace contains at least one parked-then-evicted
  payload span plus the fault windows themselves,
* the phase profiler attributes >=80% of wall time to named stages.

Alongside, the determinism contract: instrumentation must not change
simulation results (observe-on reports equal observe-off reports), and
trace exports must be byte-identical across the fast and slow engine
paths and across repeated runs at the same seed.
"""

import dataclasses
import json
import pickle

import pytest

from repro.experiments.runner import (
    DeploymentKind,
    ExperimentRunner,
    run_options,
)
from repro.experiments.scenarios import workload_scenario
from repro.obs.config import ObserveSpec
from repro.obs.schema import validate_observation
from repro.obs.session import ObservationSink, observation_sink
from repro.orchestrator.executor import RunSpec, execute_run

#: Scaled-down run length: long enough for both link-flap windows
#: (fracs 0.35 and 0.70) to land inside the measured interval.
TIME_SCALE = 0.2


def _chaos_scenario(observe):
    scenario = workload_scenario("enterprise-poisson", chain="fw_nat_lb")
    return dataclasses.replace(scenario, faults="link-flap", observe=observe)


def _run(observe, deployment=DeploymentKind.PAYLOADPARK, reference=False):
    scenario = _chaos_scenario(observe)
    sink = ObservationSink()
    with run_options(reference=reference), observation_sink(sink):
        report = ExperimentRunner(time_scale=TIME_SCALE).run_deployment(
            scenario, deployment
        )
    return report, sink.observations


@pytest.fixture(scope="module")
def traced_chaos():
    """One fully-instrumented PayloadPark run under link-flap faults."""
    report, observations = _run(ObserveSpec.full())
    assert len(observations) == 1
    return report, observations[0]


class TestAcceptance:
    def test_exports_validate_against_their_schemas(self, traced_chaos):
        _report, observation = traced_chaos
        validate_observation(observation)

    def test_trace_records_both_fault_windows(self, traced_chaos):
        _report, observation = traced_chaos
        windows = [
            record
            for record in map(json.loads, observation.trace_jsonl.splitlines())
            if record.get("type") == "fault"
        ]
        assert len(windows) == 2
        assert all(window["kind"] == "link_down" for window in windows)
        assert all(window["duration_ns"] > 0 for window in windows)

    def test_trace_has_parked_then_evicted_span(self, traced_chaos):
        _report, observation = traced_chaos
        spans = [
            record
            for record in map(json.loads, observation.trace_jsonl.splitlines())
            if record.get("type") == "span"
        ]
        evicted = [span for span in spans if span["outcome"] == "evicted"]
        assert evicted, "link-flap chaos run must evict parked payloads"
        assert all(span["end_ns"] >= span["start_ns"] for span in evicted)

    def test_chrome_trace_renders_fault_and_park_spans(self, traced_chaos):
        _report, observation = traced_chaos
        names = [
            event["name"]
            for event in observation.chrome_trace["traceEvents"]
            if event["ph"] == "X"
        ]
        assert sum(name.startswith("fault:link_down") for name in names) == 2
        assert any(
            name.startswith("park[") and name.endswith(":evicted")
            for name in names
        )

    def test_goodput_dips_inside_fault_windows(self, traced_chaos):
        """The metrics time series must show the fault-window goodput dip."""
        _report, observation = traced_chaos
        windows = [
            (record["ts"], record["ts"] + record["duration_ns"])
            for record in map(json.loads, observation.trace_jsonl.splitlines())
            if record.get("type") == "fault"
        ]
        series = observation.metrics["series"]["pktgen.srv0.delivered_useful_bytes"]
        # Each rate sample is stamped at its interval's *end*: a sample
        # within interval_ns after a window closes still covers in-window
        # time, so widen the window by one interval on the right.
        slack = observation.metrics["sample_interval_ns"]
        inside, outside = [], []
        for t_ns, rate in series["rates_per_s"]:
            if any(start < t_ns <= end + slack for start, end in windows):
                inside.append(rate)
            else:
                outside.append(rate)
        assert inside and outside
        dip = (sum(inside) / len(inside)) / (sum(outside) / len(outside))
        assert dip < 0.5, f"goodput inside fault windows only dipped to {dip:.2f}x"

    def test_profiler_attributes_wall_time_to_named_stages(self, traced_chaos):
        _report, observation = traced_chaos
        profile = observation.profile
        assert profile["total_wall_ns"] > 0
        # >=80% of wall time lands in named stages; the residual
        # event_dispatch stage completes the attribution to ~100%.
        assert profile["measured_fraction"] > 0.5
        assert profile["attributed_fraction"] >= 0.8
        assert profile["attributed_fraction"] == pytest.approx(1.0)
        names = {stage["name"] for stage in profile["stages"]}
        assert {"pipeline_walk", "nf_processing", "traffic_gen"} <= names


class TestDeterminism:
    def test_observation_does_not_change_results(self, traced_chaos):
        """Observe-on reports must be identical to observe-off reports."""
        observed_report, _observation = traced_chaos
        plain_report, observations = _run(None)
        assert observations == []
        assert dataclasses.asdict(plain_report) == dataclasses.asdict(observed_report)

    def test_trace_is_reproducible_at_the_same_seed(self, traced_chaos):
        _report, first = traced_chaos
        _report2, (second,) = _run(ObserveSpec.full())
        assert first.trace_jsonl == second.trace_jsonl
        assert first.metrics == second.metrics

    def test_fast_and_slow_paths_trace_identically(self):
        spec = ObserveSpec(trace=True)
        _rf, (fast,) = _run(spec)
        _rs, (slow,) = _run(spec, reference=True)
        assert fast.trace_jsonl == slow.trace_jsonl

    def test_trace_sampling_thins_spans_deterministically(self):
        full_spec = ObserveSpec(trace=True)
        thin_spec = ObserveSpec(trace=True, trace_sample_every=8)
        _rf, (full,) = _run(full_spec)
        _rt, (thin,) = _run(thin_spec)

        def pkt_ids(observation):
            return {
                record["pkt"]
                for record in map(json.loads, observation.trace_jsonl.splitlines())
                if record.get("ev") == "generate"
            }

        full_ids, thin_ids = pkt_ids(full), pkt_ids(thin)
        assert thin_ids < full_ids
        # Sampling is decided at generation time from the packet index,
        # so exactly the 1-in-8 stream survives.
        assert all(int(pkt.split("#")[1]) % 8 == 0 for pkt in thin_ids)


class TestCampaignIntegration:
    def test_execute_run_collects_observability_summaries(self):
        record = execute_run(
            RunSpec(
                scenario="workload",
                mode="compare",
                params={"workload": "enterprise-poisson", "chain": "fw_nat"},
                options={"observe": {"metrics": True, "profile": True}},
                time_scale=0.05,
            )
        )
        summaries = record["observability"]
        assert [entry["deployment"] for entry in summaries] == [
            "baseline", "payloadpark"
        ]
        for entry in summaries:
            assert entry["metrics"]["samples_taken"] > 0
            assert entry["profile"]["total_wall_ns"] > 0
        pickle.dumps(record)  # summaries must survive worker->pool transport

    def test_execute_run_without_observe_has_no_summaries(self):
        record = execute_run(
            RunSpec(
                scenario="workload",
                mode="compare",
                params={"workload": "enterprise-poisson", "chain": "fw_nat"},
                time_scale=0.05,
            )
        )
        assert "observability" not in record
