"""Metamorphic relations: clean on main, violated under injected bugs."""

from dataclasses import replace

import pytest

from repro.experiments.runner import run_options
from repro.experiments.scenarios import (
    fw_nat_lb_10ge,
    functional_equivalence_scenario,
    workload_scenario,
)
from repro.nf import server as nf_server
from repro.packet import pool
from repro.validation.metamorphic import (
    FastSlowEquivalence,
    RateMonotonicity,
    SeedDeterminism,
    TimeScaleInvariance,
    build_relations,
    comparison_metrics,
)


def _small(scenario, duration_us=500.0):
    return replace(scenario, duration_us=duration_us, warmup_us=duration_us / 4)


class TestRelationsHoldOnMain:
    def test_fast_slow_equivalence_at_an_arbitrary_point(self):
        scenario = _small(fw_nat_lb_10ge(7.3))  # not a golden operating point
        assert FastSlowEquivalence().check(scenario) == []

    def test_fast_slow_equivalence_on_a_generative_workload(self):
        scenario = _small(workload_scenario("heavy-tail", send_rate_gbps=5.0))
        assert FastSlowEquivalence().check(scenario) == []

    def test_seed_determinism(self):
        scenario = _small(fw_nat_lb_10ge(8.0))
        assert SeedDeterminism().check(scenario) == []

    def test_seed_determinism_accepts_a_reference_run(self):
        scenario = _small(fw_nat_lb_10ge(8.0))
        reference = comparison_metrics(scenario)
        assert SeedDeterminism().check(scenario, reference=reference) == []

    def test_time_scale_invariance(self):
        scenario = _small(functional_equivalence_scenario(4.0), duration_us=800.0)
        assert TimeScaleInvariance(factor=2.0).check(scenario) == []

    def test_rate_monotonicity(self):
        scenario = _small(fw_nat_lb_10ge(8.0), duration_us=800.0)
        assert RateMonotonicity(factor=0.5).check(scenario) == []

    def test_registry_builds_relations(self):
        relations = build_relations(
            ["fast_slow", "determinism", "time_scale", "rate_monotonicity"]
        )
        assert [type(r).__name__ for r in relations] == [
            "FastSlowEquivalence",
            "SeedDeterminism",
            "TimeScaleInvariance",
            "RateMonotonicity",
        ]
        with pytest.raises(ValueError):
            build_relations(["nope"])


class TestRelationsCatchInjectedBugs:
    def test_fast_slow_catches_a_pooled_frame_divergence(self, monkeypatch):
        # Injected bug: the frame pool builds one extra wire byte, so the
        # fast path offers slightly more load than the reference path.
        original = pool.FramePool.frame

        def buggy(self, size, flow, src_ip=None):
            return original(self, size + 1, flow, src_ip)

        monkeypatch.setattr(pool.FramePool, "frame", buggy)
        scenario = _small(fw_nat_lb_10ge(8.0))
        violations = FastSlowEquivalence().check(scenario)
        assert violations
        assert violations[0].check == "fast-slow-equivalence"
        assert "diverges" in violations[0].message

    def test_determinism_catches_hidden_global_state(self, monkeypatch):
        # Injected bug: the server's service time depends on a process-wide
        # counter, so re-running the same scenario drifts.
        original = nf_server.NfServerModel.bottleneck_service_ns
        state = {"calls": 0}

        def drifting(self):
            state["calls"] += 1
            return original(self) + state["calls"]

        monkeypatch.setattr(nf_server.NfServerModel, "bottleneck_service_ns", drifting)
        scenario = _small(fw_nat_lb_10ge(8.0), duration_us=400.0)
        with run_options(reference=True):  # bypass the cost cache
            violations = SeedDeterminism().check(scenario)
        assert violations
        assert "hidden global state" in violations[0].message
