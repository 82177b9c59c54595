"""The ambient run options: one declaration, one block, one reader."""

import dataclasses

import pytest

from repro.cli import build_parser
from repro.experiments.runner import (
    ExperimentRunner,
    RunOptions,
    ScenarioConfig,
    current_options,
    run_options,
)
from repro.experiments.scenarios import fw_nat_lb_10ge
from repro.obs.schema import validate_observation_summary
from repro.orchestrator.spec import SCENARIO_OVERRIDES, RunSpec, apply_overrides
from repro.traffic.pktgen import PktGenConfig
from repro.traffic.workload import Workload

#: (field, outer value, inner value) — one case per declared option.
NESTING_CASES = [
    ("seed", 7, 0),
    ("time_scale", 0.5, 0.25),
    ("faults", "link-flap", "chaos-mix"),
    ("observe", True, {"trace": True}),
    ("reference", True, False),
]


def test_every_option_has_a_nesting_case():
    declared = [field.name for field in dataclasses.fields(RunOptions)]
    assert declared == [name for name, _outer, _inner in NESTING_CASES]


@pytest.mark.parametrize("name, outer, inner", NESTING_CASES)
def test_blocks_nest_inherit_and_restore(name, outer, inner):
    other = "faults" if name == "seed" else "seed"
    with pytest.raises(RuntimeError, match="boom"):
        with run_options(**{name: outer}):
            with run_options(**{name: inner}):
                assert getattr(current_options(), name) == inner
            with run_options(**{other: getattr(RunOptions(), other)}):
                assert getattr(current_options(), name) == outer
            assert getattr(current_options(), name) == outer
            raise RuntimeError("boom")
    assert current_options() == RunOptions()


@pytest.mark.parametrize(
    "overrides",
    [
        {"time_scale": 0},
        {"time_scale": -1.0},
        {"time_scale": float("inf")},
        {"time_scale": float("nan")},
        {"faults": "no-such-profile"},
        {"faults": {"bogus": 1}},
        {"observe": {"bogus": True}},
        {"observe": 3},
    ],
    ids=lambda overrides: "-".join(f"{k}={v}" for k, v in overrides.items()),
)
def test_a_bad_value_raises_before_the_block_runs(overrides):
    with pytest.raises(ValueError):
        with run_options(seed=1, **overrides):
            pytest.fail("the block ran")
    assert current_options() == RunOptions()


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")], ids=str)
def test_a_non_finite_number_is_rejected_where_the_field_is_declared(value):
    # One helper (`repro.errors.require_positive_finite`) behind all four;
    # `inf` passes a bare `<= 0` test and `nan` passes every comparison.
    declarations = {
        "time_scale": [
            lambda: RunOptions(time_scale=value),
            lambda: ExperimentRunner(time_scale=value),
            lambda: RunSpec(scenario="fw_nat_lb_10ge", time_scale=value),
        ],
        "rate_gbps": [
            lambda: PktGenConfig(rate_gbps=value, workload=Workload.enterprise()),
        ],
    }
    for field, builders in declarations.items():
        for build in builders:
            with pytest.raises(ValueError, match=f"{field} must be finite, got {value}"):
                build()


@pytest.mark.parametrize("name", ["fast_path", "fidelity"])
def test_an_undeclared_option_is_a_type_error(name):
    with pytest.raises(TypeError):
        with run_options(**{name: "auto"}):
            pytest.fail("the block ran")


def test_scenarios_and_runners_built_inside_pick_the_options_up():
    spec = {"metrics": True}
    with run_options(
        seed=7, faults="link-flap", observe=spec, time_scale=0.5, reference=True,
    ):
        scenario = ScenarioConfig(name="inside")
        runner = ExperimentRunner()
        explicit = ExperimentRunner(time_scale=0.1)
    assert (scenario.seed, scenario.faults, scenario.observe) == (7, "link-flap", spec)
    assert (runner.time_scale, runner.reference) == (0.5, True)
    assert (explicit.time_scale, explicit.reference) == (0.1, True)
    outside = ScenarioConfig(name="outside")
    assert (outside.seed, outside.faults, outside.observe) == (42, None, None)
    assert (ExperimentRunner().time_scale, ExperimentRunner().reference) == (1.0, False)


class TestReferenceEngineIsNotAScenarioKnob:
    def test_not_a_scenario_field(self):
        names = {field.name for field in dataclasses.fields(ScenarioConfig)}
        assert not names & {"reference", "fast_path"}

    @pytest.mark.parametrize("key", ["reference", "fast_path"])
    def test_not_a_campaign_override(self, key):
        assert key not in SCENARIO_OVERRIDES
        with pytest.raises(ValueError, match="unknown campaign parameter"):
            apply_overrides(fw_nat_lb_10ge(), {key: True})

    def test_not_a_cli_flag(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--help"])
        usage = capsys.readouterr().out
        assert "--seed" in usage
        assert "reference" not in usage and "slow" not in usage


def test_an_observation_summary_written_before_the_field_went_still_validates():
    summary = {
        "scenario": "fw_nat_lb_10ge", "deployment": "payloadpark", "seed": 42,
        "fast_path": True, "duration_ns": 600_000,
    }
    assert validate_observation_summary(summary) is summary
    del summary["fast_path"]
    assert validate_observation_summary(summary) is summary
