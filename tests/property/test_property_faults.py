"""Property tests: simulation equivalences hold *under active fault schedules*.

PR 3's fast path and PR 4's metamorphic relations were proven on static
testbeds; the fault engine mutates NF state, link state and control-
plane configuration mid-run, which is exactly where a missed cache
invalidation or an unseeded RNG would break the two core equivalences:

* **fast-vs-slow equality** — every metric byte-identical between the
  optimized and reference simulation paths, per fault profile; and
* **seed determinism** — re-running the identical chaos scenario
  reproduces every metric exactly.

Following the repo convention (Hypothesis is not part of the pinned
environment), the randomized layer uses seeded ``random.Random``
generators: each seed is a reproducible property case drawing a random
schedule from the event grammar and asserting materialization
determinism and horizon containment.
"""

import random
from dataclasses import replace

import pytest

from repro.errors import FaultSpecError
from repro.experiments.scenarios import workload_scenario
from repro.faults import EventSchedule, fault_profile_names
from repro.validation.metamorphic import FastSlowEquivalence, SeedDeterminism

#: Simulation fidelity for the paired-run relations.
TIME_SCALE = 0.05

#: Profiles exercised by the (costlier) paired-run relations: churn +
#: loss windows per the issue's acceptance list, plus the full mix.
RELATION_PROFILES = ("backend-churn", "lossy-links", "chaos-mix")


def _chaos_scenario(faults, workload="enterprise-poisson", seed=42):
    scenario = workload_scenario(workload, send_rate_gbps=8.0, chain="fw_nat_lb")
    return replace(scenario, faults=faults, seed=seed)


class TestFastSlowEqualityUnderFaults:
    @pytest.mark.parametrize("profile", RELATION_PROFILES)
    def test_profile_preserves_fast_slow_equality(self, profile):
        violations = FastSlowEquivalence().check(
            _chaos_scenario(profile), time_scale=TIME_SCALE
        )
        assert not violations, [str(violation) for violation in violations]

    def test_inline_schedule_preserves_fast_slow_equality(self):
        schedule = {"events": [
            {"kind": "firewall_churn", "at_frac": 0.3, "action": "add", "count": 5},
            {"kind": "backend_churn", "at_frac": 0.5, "action": "remove"},
            {"kind": "link_loss", "at_frac": 0.4, "duration_frac": 0.2,
             "probability": 0.1, "link": "all"},
        ]}
        violations = FastSlowEquivalence().check(
            _chaos_scenario(schedule), time_scale=TIME_SCALE
        )
        assert not violations, [str(violation) for violation in violations]


class TestSeedDeterminismUnderFaults:
    @pytest.mark.parametrize("profile", ("chaos-mix", "lossy-links"))
    def test_profile_preserves_determinism(self, profile):
        violations = SeedDeterminism().check(
            _chaos_scenario(profile, seed=7), time_scale=TIME_SCALE
        )
        assert not violations, [str(violation) for violation in violations]

    def test_different_seeds_shift_generator_phases(self):
        schedule = EventSchedule.from_spec("backend-churn")
        horizon = 6_000_000
        assert (
            [event.at_ns for event in schedule.materialize(3, horizon)]
            != [event.at_ns for event in schedule.materialize(4, horizon)]
        )


def _random_schedule_spec(rng):
    """Draw a structurally valid schedule from the event grammar."""
    events = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.choice(["link_down", "link_loss", "link_jitter",
                           "backend_churn", "firewall_churn",
                           "expiry_threshold", "park_drain"])
        record = {"kind": kind, "at_frac": round(rng.uniform(0.0, 0.95), 3)}
        if kind in ("link_down", "link_loss", "link_jitter"):
            record["link"] = rng.choice(["server", "gen", "gen0", "all"])
            if rng.random() < 0.8:
                record["duration_frac"] = round(rng.uniform(0.01, 0.3), 3)
        if kind == "link_loss":
            record["probability"] = round(rng.uniform(0.01, 0.5), 3)
        if kind == "link_jitter":
            record["jitter_ns"] = rng.randrange(100, 10_000)
        if kind == "backend_churn":
            record["action"] = rng.choice(["remove", "add", "flap"])
        if kind == "firewall_churn":
            record["action"] = rng.choice(["add", "remove"])
            record["count"] = rng.randrange(1, 6)
        if kind == "expiry_threshold":
            record["value"] = rng.randrange(1, 12)
        if kind == "park_drain":
            record["fraction"] = round(rng.uniform(0.1, 1.0), 2)
        events.append(record)
    generators = []
    if rng.random() < 0.5:
        generators.append({
            "kind": rng.choice(["backend_churn", "firewall_churn"]),
            "period_frac": round(rng.uniform(0.1, 0.4), 3),
            "jitter": round(rng.uniform(0.0, 0.9), 2),
        })
    return {"events": events, "generators": generators}


class TestScheduleProperties:
    @pytest.mark.parametrize("seed", range(25))
    def test_materialization_is_deterministic_and_bounded(self, seed):
        rng = random.Random(seed)
        schedule = EventSchedule.from_spec(_random_schedule_spec(rng))
        horizon = rng.randrange(100_000, 20_000_000)
        first = schedule.materialize(seed, horizon)
        again = schedule.materialize(seed, horizon)
        assert [(e.at_ns, e.kind, dict(e.params)) for e in first] == [
            (e.at_ns, e.kind, dict(e.params)) for e in again
        ]
        assert all(0 <= event.at_ns < horizon for event in first)
        assert [event.at_ns for event in first] == sorted(
            event.at_ns for event in first
        )

    def test_every_registered_profile_survives_tiny_horizons(self):
        # A horizon smaller than every event time must yield an empty
        # materialization, never a crash or a negative-time event.
        for name in fault_profile_names():
            schedule = EventSchedule.from_spec(name)
            events = schedule.materialize(seed=1, horizon_ns=1_000)
            assert all(0 <= event.at_ns < 1_000 for event in events)
        with pytest.raises(FaultSpecError):
            schedule.materialize(seed=1, horizon_ns=0)
