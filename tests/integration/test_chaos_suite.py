"""The chaos suite: fault injection proven correct end to end.

Three layers of proof:

* **green under churn** — a campaign sweeping fault profiles over
  workloads with ``validate: true`` holds every invariant (drop-aware
  packet conservation, no-orphaned-payload, NF cache consistency,
  parking-slot leak detection) while links flap, backends drain and
  rules burst mid-run;
* **red under injected bugs** — deliberately broken invalidation (a
  ``remove_backend`` that forgets the Maglev flow cache, an ``add_rule``
  that forgets the firewall's compiled classifier, a drain that
  forgets its eviction accounting, a drain that loses payload under its
  owner, a link that drops without counting) is caught by the exact
  invariant built to see it;
* **observable effects** — the injector's counters and the link fault
  counters prove the chaos actually happened (a green run that injected
  nothing would be vacuous).
"""

from dataclasses import replace

import pytest

from repro.core.program import PayloadParkProgram
from repro.experiments.runner import ExperimentRunner, run_observer
from repro.experiments.scenarios import workload_scenario
from repro.nf.firewall import Firewall
from repro.nf.loadbalancer import MaglevLoadBalancer
from repro.orchestrator import CampaignExecutor, CampaignSpec
from repro.validation.engine import ValidationObserver, check_scenario
from repro.validation.invariants import (
    NoOrphanedPayload,
    PacketConservation,
    RetransmitAccounting,
)

#: Cheap simulation fidelity for integration runs.
TIME_SCALE = 0.05


def _chaos_scenario(faults, workload="enterprise-poisson", **overrides):
    scenario = workload_scenario(workload, send_rate_gbps=8.0, chain="fw_nat_lb")
    return replace(scenario, faults=faults, **overrides)


class TestChaosCampaignAcceptance:
    def test_fault_profiles_by_workloads_validate_green(self):
        # The acceptance bar: >= 3 fault profiles x >= 2 workloads, every
        # grid point running baseline + PayloadPark under the invariant
        # engine, all green.
        campaign = CampaignSpec(
            name="chaos-acceptance",
            scenario="workload",
            base={"chain": "fw_nat_lb", "send_rate_gbps": 8.0, "seed": 21},
            grid={
                "faults": ["link-flap", "backend-churn", "chaos-mix"],
                "workload": ["enterprise-poisson", "bursty-mmpp"],
            },
            time_scale=TIME_SCALE,
            options={"validate": True},
        )
        summary = CampaignExecutor(workers=1).run_campaign(campaign)
        failures = [
            (record["params"], record.get("error"))
            for record in summary.records
            if record.get("status") != "ok"
        ]
        assert summary.executed == 6 and not failures, failures
        for record in summary.records:
            assert record["runs_validated"] == 2
            assert record["violations"] == []

    def test_fault_grid_points_are_seed_deterministic(self):
        campaign = CampaignSpec(
            name="chaos-det",
            scenario="workload",
            base={"chain": "fw_nat_lb", "seed": 5, "faults": "chaos-mix"},
            grid={"workload": ["enterprise-poisson"]},
            time_scale=TIME_SCALE,
        )
        first = CampaignExecutor(workers=1).run_campaign(campaign).records[0]
        second = CampaignExecutor(workers=1).run_campaign(campaign).records[0]
        assert first["metrics"] == second["metrics"]


class TestChaosHasObservableEffects:
    def test_injector_counters_and_fault_drops(self):
        observer = ValidationObserver(keep_observations=True)
        runner = ExperimentRunner(time_scale=0.1)
        with run_observer(observer):
            runner.compare(_chaos_scenario("chaos-mix"))
        assert observer.runs_checked == 2 and not observer.violations, [
            str(violation) for violation in observer.violations
        ]
        for observation in observer.observations:
            injector = observation.topology.fault_injector
            stats = injector.stats()
            assert stats["events_applied"] > 0
            assert stats["backends_removed"] > 0
            assert stats["rules_added"] > 0
            assert stats["links_downed"] > 0
        # The PayloadPark run drained parked slots and accounted them.
        park = [
            observation for observation in observer.observations
            if observation.deployment == "payloadpark"
        ][0]
        assert sum(park.topology.fault_injector.slots_drained.values()) > 0

    def test_link_flap_drops_are_attributed_to_faults(self):
        observer = ValidationObserver(keep_observations=True)
        runner = ExperimentRunner(time_scale=0.1)
        with run_observer(observer):
            runner.compare(_chaos_scenario("link-flap"))
        assert not observer.violations
        for observation in observer.observations:
            attachment = observation.topology.attachments[0]
            assert attachment.server_link.fault_drops() > 0
            # Injected losses are attributed to their own breakdown
            # category and excluded from the §6.3.1 health criterion
            # (like deliberate chain drops): an outage window must not
            # read as an unhealthy deployment.
            for report in observation.reports:
                assert report.drop_breakdown["link_fault_drops"] > 0
                assert report.packets_dropped < report.drop_breakdown[
                    "link_fault_drops"
                ]

    def test_expiry_threshold_reconfigures_mid_run(self):
        observer = ValidationObserver(keep_observations=True)
        runner = ExperimentRunner(time_scale=0.1)
        with run_observer(observer):
            runner.compare(_chaos_scenario("threshold-flap"))
        assert not observer.violations
        park = [
            observation for observation in observer.observations
            if observation.deployment == "payloadpark"
        ][0]
        assert park.topology.fault_injector.threshold_changes == 2


class TestClosedLoopUnderChaos:
    def test_retransmit_conservation_under_link_loss_and_park_drain(self):
        # A closed-loop sender bank rides out a random-loss window AND a
        # parked-payload drain in the same run: every lost frame costs a
        # real retransmission, every drained payload a real eviction, and
        # the retransmitted-bytes accounting still reconciles throughput
        # against goodput exactly.
        schedule = {"events": [
            {"kind": "link_loss", "at_frac": 0.30, "duration_frac": 0.25,
             "probability": 0.05, "link": "all"},
            {"kind": "park_drain", "at_frac": 0.70, "fraction": 0.5},
        ]}
        observer = ValidationObserver(keep_observations=True)
        runner = ExperimentRunner(time_scale=0.1)
        with run_observer(observer):
            runner.compare(_chaos_scenario(schedule, workload="incast-collapse"))
        assert observer.runs_checked == 2 and not observer.violations, [
            str(violation) for violation in observer.violations
        ]
        for observation in observer.observations:
            assert RetransmitAccounting().check(observation) == []
            assert PacketConservation().check(observation) == []
            # The chaos had teeth: the transport really retransmitted.
            gen = observation.topology.attachments[0].pktgen
            assert gen.retransmitted_packets > 0
            assert gen.transport.timeouts + gen.transport.fast_retransmits > 0
        park = [
            observation for observation in observer.observations
            if observation.deployment == "payloadpark"
        ][0]
        assert sum(park.topology.fault_injector.slots_drained.values()) > 0


class TestInjectedBugsAreCaught:
    def test_stale_maglev_cache_after_remove_backend(self, monkeypatch):
        # The intentionally injected invalidation bug from the issue's
        # acceptance criteria: remove_backend rebuilds the Maglev table
        # but "forgets" to drop the per-flow fast-path cache, silently
        # pinning cached flows to the drained backend.
        def buggy_set_backends(self, backends):
            if not backends:
                raise ValueError("the load balancer needs at least one backend")
            self.backends = list(backends)
            self.lookup_table = self._populate()
            for backend in self.backends:
                self.assignments.setdefault(backend.name, 0)
            # BUG: self._backend_cache is left holding pre-churn mappings.

        monkeypatch.setattr(MaglevLoadBalancer, "set_backends", buggy_set_backends)
        schedule = {"events": [
            {"kind": "backend_churn", "at_frac": 0.6, "action": "remove", "count": 2},
        ]}
        report = check_scenario(_chaos_scenario(schedule), time_scale=0.1)
        assert not report.ok
        checks = {violation.check for violation in report.violations}
        assert "nf-state-consistency" in checks
        assert any("left the pool" in violation.message or
                   "Maglev table chooses" in violation.message
                   for violation in report.violations)

    def test_stale_firewall_classifier_after_add_rule(self, monkeypatch):
        # The firewall's counterpart: add_rule grows the ACL but skips
        # _invalidate, so the compiled classifier keeps answering for
        # the pre-churn rule list (verdicts and cycle costs alike).
        monkeypatch.setattr(
            Firewall, "add_rule", lambda self, rule: self.rules.append(rule)
        )
        schedule = {"events": [
            {"kind": "firewall_churn", "at_frac": 0.6, "action": "add", "count": 2},
        ]}
        report = check_scenario(_chaos_scenario(schedule), time_scale=0.1)
        assert not report.ok
        assert {violation.check for violation in report.violations} == {
            "nf-state-consistency"
        }
        assert all("stale classifier" in violation.message
                   for violation in report.violations)

    def test_unaccounted_park_drain_is_caught(self, monkeypatch):
        # A drain that reclaims slots without recording evictions breaks
        # the splits - merges - drops - evictions identity; both the
        # parking-slot-leak and the no-orphaned-payload accounting checks
        # must see it.
        original = PayloadParkProgram.drain_parked

        def forgetful_drain(self, binding=None, fraction=1.0, recorder=None):
            drained = {}
            for name, table in self.lookup_tables.items():
                count = 0
                for index in table.occupied_indices():
                    if table.drain_slot(index):
                        count += 1  # BUG: no eviction accounting
                drained[name] = count
            return drained

        monkeypatch.setattr(PayloadParkProgram, "drain_parked", forgetful_drain)
        report = check_scenario(_chaos_scenario("park-drain"), time_scale=0.1)
        monkeypatch.setattr(PayloadParkProgram, "drain_parked", original)
        assert not report.ok
        checks = {violation.check for violation in report.violations}
        assert "no-orphaned-payload" in checks
        assert "parking-slot-leak" in checks

    def test_payload_vanishing_under_owner_is_caught(self):
        # A drain that clears the payload registers but forgets to free
        # the metadata slot leaves an occupied slot with no bytes.  Plant
        # exactly that end state in a real finished observation (a
        # transient mid-run orphan is reclaimed by its returning owner,
        # so the scan's target is the persistent state) and assert the
        # structural scan flags it.
        from repro.core.lookup_table import MetadataEntry

        observer = ValidationObserver(keep_observations=True)
        runner = ExperimentRunner(time_scale=0.1)
        with run_observer(observer):
            runner.compare(_chaos_scenario("park-drain"))
        assert not observer.violations
        observation = [
            obs for obs in observer.observations if obs.deployment == "payloadpark"
        ][0]
        table = observation.program.lookup_table("srv0")
        table.metadata.poke(0, MetadataEntry(clk=1, exp=1))
        for array in table.block_arrays:
            array.poke(0, b"")
        violations = NoOrphanedPayload().check(observation)
        assert violations and "payload vanished" in violations[0].message

    def test_uncounted_link_drop_breaks_conservation(self):
        # Tamper with a finished observation: claim one fault drop never
        # happened.  Drop-aware conservation must flag the unaccounted
        # packet rather than absorbing it into the link totals.
        observer = ValidationObserver(keep_observations=True)
        runner = ExperimentRunner(time_scale=0.1)
        with run_observer(observer):
            runner.compare(_chaos_scenario("link-flap"))
        assert not observer.violations
        observation = observer.observations[0]
        link = observation.topology.attachments[0].server_link
        assert link.fault_drops() > 0
        link._a_to_b.stats.frames_dropped_down -= 1
        violations = PacketConservation().check(observation)
        assert violations and "accounted" in violations[0].message

    def test_orphan_scan_is_clean_on_a_healthy_drain(self):
        # Control: the real drain path leaves no orphan for the scan to
        # find, so the red tests above fail for the right reason.
        report = check_scenario(_chaos_scenario("park-drain"), time_scale=0.1)
        assert report.ok, [str(violation) for violation in report.violations]


class TestFuzzerFaultDimension:
    def test_generator_draws_fault_profiles(self):
        import random

        from repro.validation.fuzzer import FUZZ_FAULT_PROFILES, generate_run

        rng = random.Random(0)
        drawn = [generate_run(rng, index) for index in range(60)]
        with_faults = [run for run in drawn if "faults" in run.params]
        assert with_faults, "no fuzz descriptor drew the fault dimension"
        assert all(
            run.params["faults"] in FUZZ_FAULT_PROFILES for run in with_faults
        )

    def test_shrinking_drops_the_fault_schedule_first(self):
        from repro.orchestrator.spec import RunSpec
        from repro.validation.fuzzer import descriptor_size, shrink

        run = RunSpec(
            scenario="workload",
            params={"workload": "enterprise-poisson", "send_rate_gbps": 2.0,
                    "duration_us": 200.0, "warmup_us": 50.0, "seed": 1,
                    "faults": "chaos-mix"},
        )
        bare = shrink(run, still_fails=lambda candidate: True)
        assert "faults" not in bare.params
        assert descriptor_size(bare) < descriptor_size(run)

    def test_fault_descriptor_validates_clean(self):
        from repro.orchestrator.spec import RunSpec
        from repro.validation.fuzzer import check_run

        run = RunSpec(
            scenario="workload",
            params={"workload": "enterprise-poisson", "chain": "fw_nat_lb",
                    "send_rate_gbps": 6.0, "duration_us": 600.0,
                    "warmup_us": 150.0, "seed": 13, "faults": "backend-churn"},
            time_scale=0.2,
        )
        violations = check_run(run)
        assert not violations, [str(violation) for violation in violations]
