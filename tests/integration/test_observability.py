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
paths and across repeated runs at the same seed.  The phase profiler
wraps the engine's seams from outside for one run: every wrapper is
gone afterwards, even when the run raises, and each stage's event count
is an engine count.
"""

import dataclasses
import inspect
import json
import pickle

import pytest

from repro.core.program import BaselineProgram, PayloadParkProgram, SwitchProgram
from repro.experiments.runner import (
    DeploymentKind,
    ExperimentRunner,
    RunObserver,
    run_observer,
    run_options,
)
from repro.experiments.scenarios import fw_nat_lb_10ge, workload_scenario
from repro.faults.injector import FaultInjectorNode
from repro.netsim.link import Link
from repro.netsim.server_node import NfServerNode
from repro.netsim.switch_node import SwitchNode
from repro.netsim.trafficgen_node import TrafficGenNode
from repro.obs.config import ObserveSpec
from repro.obs.profiler import STAGES, seam_owners
from repro.obs.schema import validate_observation
from repro.obs.session import ObservationSink, observation_sink
from repro.orchestrator.executor import RunSpec, execute_run

#: Every feature on: the ``repro observe run`` configuration.
FULL = ObserveSpec(metrics=True, trace=True, profile=True)

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
    report, observations = _run(FULL)
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


def _report_bytes(report):
    return json.dumps(dataclasses.asdict(report), sort_keys=True)


class TestDeterminism:
    @pytest.mark.parametrize("spec", ["full", "profile-only"])
    def test_observation_does_not_change_results(self, spec, traced_chaos):
        """Observe-on reports must be identical to observe-off reports."""
        if spec == "full":
            observed_report, _observation = traced_chaos
        else:
            observed_report, (observation,) = _run(ObserveSpec(profile=True))
            assert observation.profile is not None
        plain_report, observations = _run(None)
        assert observations == []
        assert _report_bytes(plain_report) == _report_bytes(observed_report)

    def test_trace_is_reproducible_at_the_same_seed(self, traced_chaos):
        _report, first = traced_chaos
        _report2, (second,) = _run(FULL)
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


#: Every class a profiler seam's method is defined on.
SEAM_CLASSES = (
    SwitchProgram, BaselineProgram, PayloadParkProgram, SwitchNode,
    NfServerNode, TrafficGenNode, Link, FaultInjectorNode,
)


def _seams(topology, program):
    """``(stage, owner, method)`` for every seam of one wired testbed."""
    owners = seam_owners(topology, program)
    return [
        (stage, owner, name)
        for stage, seams in STAGES.items()
        for role, name in seams
        for owner in owners[role]
    ]


def _unwrapped(owner, name):
    """True when *owner*'s *name* is its own bound method again."""
    method = getattr(owner, name)
    return inspect.ismethod(method) and method.__self__ is owner


class _Testbed(RunObserver):
    """Keeps the run's testbed; checks the seams are wrapped at run
    start; optionally raises from an event mid-window."""

    def __init__(self, raise_at_ns=None):
        self.raise_at_ns = raise_at_ns
        self.topology = self.program = None

    def on_run_start(self, scenario, deployment, topology, program):
        self.topology, self.program = topology, program
        assert not any(_unwrapped(owner, name) for _, owner, name in _seams(topology, program))
        if self.raise_at_ns is not None:
            def boom():
                raise RuntimeError("observer failed mid-window")

            topology.env.schedule_at(self.raise_at_ns, boom)


def _profiled(scenario, testbed, deployment=DeploymentKind.PAYLOADPARK, time_scale=0.05):
    sink = ObservationSink()
    with observation_sink(sink), run_observer(testbed):
        report = ExperimentRunner(time_scale=time_scale).run_deployment(scenario, deployment)
    (observation,) = sink.observations
    return report, observation


class TestOutsideInProfiler:
    @pytest.mark.parametrize("raise_at_ns", [None, 100_000], ids=["completes", "raises"])
    def test_no_wrapper_outlives_the_run(self, raise_at_ns):
        scenario = _chaos_scenario(ObserveSpec(profile=True))
        classes = {cls: dict(vars(cls)) for cls in SEAM_CLASSES}
        testbed = _Testbed(raise_at_ns)
        if raise_at_ns is None:
            _profiled(scenario, testbed, time_scale=TIME_SCALE)
        else:
            with pytest.raises(RuntimeError, match="mid-window"):
                _profiled(scenario, testbed, time_scale=TIME_SCALE)
        seams = _seams(testbed.topology, testbed.program)
        assert {stage for stage, _, _ in seams} == set(STAGES)
        assert all(_unwrapped(owner, name) for _, owner, name in seams)
        assert {cls: dict(vars(cls)) for cls in SEAM_CLASSES} == classes

    @pytest.mark.parametrize("deployment", list(DeploymentKind), ids=lambda kind: kind.value)
    def test_stage_events_are_engine_counts(self, deployment):
        scenario = dataclasses.replace(
            fw_nat_lb_10ge(send_rate_gbps=6.0), faults=None, observe=ObserveSpec(profile=True)
        )
        testbed = _Testbed()
        _report, observation = _profiled(scenario, testbed, deployment)
        events = {row["name"]: row["events"] for row in observation.profile["stages"]}

        attachments = testbed.topology.attachments
        links = [link for a in attachments for link in (*a.gen_links, a.server_link)]
        directions = [stats for link in links for stats in link.direction_counters()]
        assert sum(stats.frames_dropped + stats.fault_drops for stats in directions) == 0
        into_switch = sum(
            link.direction_stats(sender).frames_delivered
            for a in attachments
            for link, sender in (
                *((gen_link, a.pktgen) for gen_link in a.gen_links),
                (a.server_link, a.server),
            )
        )
        servers = [a.server for a in attachments]
        bursts, partial = divmod(
            sum(a.pktgen.packets_sent for a in attachments), scenario.burst_size
        )
        assert partial == 0
        assert events == {
            "pipeline_walk": into_switch,
            "nf_processing": sum(
                s.accepted_packets + s.overflow_drops + s.processed_packets for s in servers
            ),
            "traffic_gen": bursts,
            "link_transmit": sum(stats.frames_sent for stats in directions),
            "event_dispatch": 0,
        }
        assert min(count for name, count in events.items() if name != "event_dispatch") > 0
