"""The differential scenario fuzzer: generation, shrinking, acceptance."""

import random

import pytest

from repro.orchestrator.spec import build_scenario
from repro.packet import pool
from repro.validation.fuzzer import (
    check_run,
    descriptor_size,
    fuzz,
    generate_run,
    parse_budget,
    shrink,
)


class TestGeneration:
    def test_fixed_seed_reproduces_the_scenario_sequence(self):
        first = [generate_run(random.Random(9), i) for i in range(8)]
        second = [generate_run(random.Random(9), i) for i in range(8)]
        assert [r.spec_hash for r in first] == [r.spec_hash for r in second]

    def test_different_seeds_explore_different_scenarios(self):
        a = {generate_run(random.Random(1), i).spec_hash for i in range(8)}
        b = {generate_run(random.Random(2), i).spec_hash for i in range(8)}
        assert a != b

    def test_generated_descriptors_materialize(self):
        rng = random.Random(4)
        kinds = set()
        for index in range(20):
            run = generate_run(rng, index)
            kinds.add(run.scenario)
            scenario = build_scenario(run)
            assert scenario.duration_us > scenario.warmup_us > 0
        assert len(kinds) >= 3  # the space is actually explored

    def test_descriptor_size_rewards_simplification(self):
        rng = random.Random(4)
        run = generate_run(rng, 0)
        smaller_params = dict(run.params)
        smaller_params["duration_us"] = run.params["duration_us"] / 2
        from repro.orchestrator.spec import RunSpec

        smaller = RunSpec(scenario=run.scenario, params=smaller_params)
        assert descriptor_size(smaller) < descriptor_size(run)


class TestShrinking:
    def test_shrink_reaches_a_fixpoint_when_everything_fails(self):
        rng = random.Random(3)
        run = generate_run(rng, 0)
        shrunk = shrink(run, lambda candidate: True)
        assert descriptor_size(shrunk) < descriptor_size(run)
        # At the fixpoint no candidate is smaller and still "failing".
        from repro.validation.fuzzer import _shrink_candidates

        assert all(
            descriptor_size(c) >= descriptor_size(shrunk)
            for c in _shrink_candidates(shrunk)
        )

    def test_shrink_keeps_the_original_when_nothing_simpler_fails(self):
        rng = random.Random(3)
        run = generate_run(rng, 0)
        shrunk = shrink(run, lambda candidate: False)
        assert shrunk is run


class TestBudgets:
    def test_parse_budget(self):
        assert parse_budget("30s") == 30.0
        assert parse_budget("2m") == 120.0
        assert parse_budget("45") == 45.0
        assert parse_budget("500ms") == 0.5
        with pytest.raises(ValueError):
            parse_budget("soon")
        with pytest.raises(ValueError):
            parse_budget("-3s")

    def test_budget_bounds_the_session(self):
        result = fuzz(seed=5, budget_s=0.01, max_scenarios=50)
        assert result.scenarios_checked <= 2


@pytest.mark.validation
class TestAcceptance:
    """The ISSUE acceptance criteria for the fuzzer, verbatim."""

    def test_fifty_scenarios_on_main_are_violation_free(self):
        result = fuzz(seed=0, max_scenarios=50)
        assert result.scenarios_checked >= 50
        failures = [
            (f.original.scenario, dict(f.original.params),
             [str(v) for v in f.violations])
            for f in result.failures
        ]
        assert result.ok, failures

    def test_injected_bug_is_caught_with_a_half_size_repro(
        self, monkeypatch, tmp_path
    ):
        # Injected bug: the frame pool builds four extra wire bytes, so
        # the fast path diverges from the reference path at every
        # operating point.
        original = pool.FramePool.frame

        def buggy(self, size, flow, src_ip=None):
            return original(self, size + 4, flow, src_ip)

        monkeypatch.setattr(pool.FramePool, "frame", buggy)
        corpus = tmp_path / "corpus"
        result = fuzz(seed=3, max_scenarios=1, corpus_dir=str(corpus))
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert any(v.check == "fast-slow-equivalence" for v in failure.violations)
        # The shrunk repro is at most half the original scenario's size.
        assert failure.shrunk_size <= failure.original_size / 2
        # The repro landed in the corpus and still fails while the bug
        # is live...
        entries = sorted(corpus.glob("repro-*.json"))
        assert len(entries) == 1
        from repro.validation.corpus import load_entry, replay_entry

        assert replay_entry(load_entry(entries[0]))
        # ...and replays clean once the bug is fixed.
        monkeypatch.setattr(pool.FramePool, "frame", original)
        assert replay_entry(load_entry(entries[0])) == []

    def test_shrunk_repro_descriptor_survives_check_run_roundtrip(self):
        # A shrunk descriptor is plain data; re-checking it on main (no
        # injected bug) is clean.
        rng = random.Random(3)
        run = generate_run(rng, 0)
        assert check_run(run) == []
