"""Unit tests for the campaign orchestrator: specs, store, executor, aggregation."""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments.runner import ExperimentRunner, ScenarioConfig
from repro.experiments.scenarios import fw_nat_lb_10ge
from repro.nf.framework import NETBRICKS, OPENNETVM
from repro.orchestrator import (
    CampaignExecutor,
    CampaignSpec,
    ResultStore,
    RunSpec,
    build_scenario,
    derived_seed,
    execute_run,
)
from repro.orchestrator.aggregate import campaign_rows
from repro.orchestrator.dispatcher import DispatchLoop, _PendingCell
from repro.orchestrator.spec import PAYLOADPARK_OVERRIDES, SCENARIO_OVERRIDES, dedupe_specs

#: Simulated-time scale keeping each run cheap while still exercising traffic.
FAST = 0.05

CAMPAIGNS = Path(__file__).resolve().parents[2] / "examples" / "campaigns"


def small_campaign(**kwargs) -> CampaignSpec:
    defaults = dict(
        name="test-grid",
        scenario="fw_nat_lb_10ge",
        grid={"send_rate_gbps": [2.0, 4.0, 6.0, 8.0], "expiry_threshold": [1, 4]},
        time_scale=FAST,
    )
    defaults.update(kwargs)
    return CampaignSpec(**defaults)


class TestRunSpec:
    def test_hash_is_stable_across_param_order(self):
        a = RunSpec("fw_nat_lb_10ge", params={"send_rate_gbps": 8.0, "seed": 1})
        b = RunSpec("fw_nat_lb_10ge", params={"seed": 1, "send_rate_gbps": 8.0})
        assert a.spec_hash == b.spec_hash

    def test_hash_changes_with_any_input(self):
        base = RunSpec("fw_nat_lb_10ge", params={"send_rate_gbps": 8.0})
        assert base.spec_hash != RunSpec(
            "fw_nat_lb_10ge", params={"send_rate_gbps": 9.0}
        ).spec_hash
        assert base.spec_hash != RunSpec(
            "fw_nat_40ge_enterprise", params={"send_rate_gbps": 8.0}
        ).spec_hash
        assert base.spec_hash != RunSpec(
            "fw_nat_lb_10ge", params={"send_rate_gbps": 8.0}, time_scale=0.5
        ).spec_hash
        assert base.spec_hash != RunSpec(
            "fw_nat_lb_10ge", mode="peak", params={"send_rate_gbps": 8.0}
        ).spec_hash

    def test_hash_matches_known_value(self):
        # Pinned: the resume key must stay stable across sessions/processes.
        spec = RunSpec("fw_nat_lb_10ge", params={"send_rate_gbps": 8.0})
        assert spec.spec_hash == spec.spec_hash
        assert len(spec.spec_hash) == 16
        int(spec.spec_hash, 16)  # hex

    def test_rejects_unknown_scenario_and_mode(self):
        with pytest.raises(ValueError):
            RunSpec("not-a-scenario")
        with pytest.raises(ValueError):
            RunSpec("fw_nat_lb_10ge", mode="explore")

    def test_dedupe_preserves_order(self):
        a = RunSpec("fw_nat_lb_10ge", params={"send_rate_gbps": 2.0})
        b = RunSpec("fw_nat_lb_10ge", params={"send_rate_gbps": 4.0})
        assert dedupe_specs([a, b, a]) == [a, b]

    def test_baseline_hash_leaves_out_only_payloadpark_overrides(self):
        base = {"send_rate_gbps": 8.0, "seed": 3}
        run = RunSpec("fw_nat_lb_10ge", params=base)
        knobs = RunSpec(
            "fw_nat_lb_10ge",
            params={**base, "expiry_threshold": 10, "sram_fraction": 0.1,
                    "enable_recirculation": True, "min_split_payload": 100_000},
        )
        assert knobs.spec_hash != run.spec_hash
        assert knobs.baseline_hash == run.baseline_hash
        assert run.baseline_hash != run.spec_hash
        for other in (
            {**base, "seed": 4},
            {**base, "send_rate_gbps": 9.0},
            {**base, "explicit_drop": True},
            {**base, "framework": "opennetvm"},
        ):
            assert RunSpec("fw_nat_lb_10ge", params=other).baseline_hash != run.baseline_hash
        assert RunSpec(
            "fw_nat_lb_10ge", params=base, time_scale=0.5
        ).baseline_hash != run.baseline_hash
        assert RunSpec(
            "fw_nat_lb_10ge", params=base, options={"validate": True}
        ).baseline_hash != run.baseline_hash

    @pytest.mark.parametrize(
        "scenario, params, knob",
        [
            ("explicit_drop", {"explicit_drop": True}, "expiry_threshold"),
            ("memory_sweep", {}, "sram_fraction"),
        ],
    )
    def test_a_builder_parameter_stays_in_the_baseline_hash(self, scenario, params, knob):
        # The builder may use its parameter anywhere (memory_sweep names
        # the scenario after it), so its PayloadPark-sounding name does
        # not take it out of the key.
        a = RunSpec(scenario, params={**params, knob: 1})
        b = RunSpec(scenario, params={**params, knob: 0.5})
        assert a.baseline_hash != b.baseline_hash

    def test_observe_and_peak_cells_do_not_share_baselines(self):
        assert RunSpec("fw_nat_lb_10ge").shares_baseline
        assert not RunSpec("fw_nat_lb_10ge", mode="peak").shares_baseline
        assert not RunSpec(
            "fw_nat_lb_10ge", options={"observe": {"metrics": True}}
        ).shares_baseline

    def test_example_campaign_spec_hashes_are_unchanged(self):
        # sha256 over each file's expanded spec hashes, in grid order: a
        # change here orphans every record already stored for it.
        pinned = {
            "closed_loop_sweep.yaml": "c63bf3f86e987857",
            "dispatcher_chaos.yaml": "4f499698b3f5d02b",
            "fault_chaos.yaml": "54e57642c99256f7",
            "memory_peak_sweep.yaml": "63598b852244a605",
            "rate_expiry_grid.yaml": "5121fccbf4aa1c76",
            "serve_smoke.yaml": "0008bd68dc5f7e78",
            "validated_rate_sweep.yaml": "e65fec49170440c1",
            "workload_sweep.yaml": "8699020d426ebf7a",
        }
        pytest.importorskip("yaml")
        found = {}
        for path in sorted(CAMPAIGNS.glob("*.yaml")):
            joined = ",".join(run.spec_hash for run in CampaignSpec.from_file(path).expand())
            found[path.name] = hashlib.sha256(joined.encode()).hexdigest()[:16]
        assert found == pinned


class TestCampaignSpec:
    def test_expand_is_cartesian_and_ordered(self):
        campaign = small_campaign()
        runs = campaign.expand()
        assert len(runs) == campaign.point_count == 8
        assert len({run.spec_hash for run in runs}) == 8
        # expiry_threshold sorts before send_rate_gbps, so it varies slowest.
        assert [run.params["expiry_threshold"] for run in runs[:4]] == [1, 1, 1, 1]
        assert [run.params["send_rate_gbps"] for run in runs[:4]] == [2.0, 4.0, 6.0, 8.0]

    def test_base_and_grid_may_not_overlap(self):
        with pytest.raises(ValueError):
            small_campaign(base={"expiry_threshold": 1})

    @pytest.mark.parametrize("value", [-1.0, 0.0, float("inf"), float("nan")])
    def test_time_scale_must_be_positive_and_finite(self, value):
        with pytest.raises(ValueError, match="time_scale must be"):
            small_campaign(time_scale=value)
        with pytest.raises(ValueError, match="time_scale must be"):
            small_campaign().with_time_scale(value)

    @pytest.mark.parametrize("where", ["base", "grid"])
    @pytest.mark.parametrize("key", ["fast_pth", "fast_path", "chain", "switch_latency_ns"])
    def test_parameter_names_are_checked_when_the_spec_is_built(self, where, key):
        # "chain" is a builder parameter of the workload scenario only;
        # "switch_latency_ns" was an override no run ever read.
        params = {key: [True, False]} if where == "grid" else {key: True}
        with pytest.raises(ValueError, match=f"unknown campaign parameter '{key}'"):
            CampaignSpec(name="x", scenario="fw_nat_lb_10ge", **{where: params})

    def test_builder_and_override_parameters_are_accepted(self):
        campaign = CampaignSpec(
            name="x",
            scenario="workload",
            base={"chain": "fw_nat", "framework": "netbricks"},
            grid={"workload": ["bursty-mmpp"], "sram_fraction": [0.1], "seed": [1]},
        )
        assert campaign.point_count == 1

    def test_a_misspelt_axis_in_a_file_is_rejected_on_load(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps({
            "name": "x",
            "scenario": "fw_nat_lb_10ge",
            "grid": {"send_rate_gbps": [4.0], "fast_pth": [True, False]},
        }))
        with pytest.raises(ValueError, match="unknown campaign parameter 'fast_pth'"):
            CampaignSpec.from_file(path)

    @pytest.mark.parametrize("mode, key", [
        ("compare", "validat"),
        ("compare", "fidelity"),
        ("compare", "tolerance_gbps"),  # a peak-mode knob a compare cell never reads
        ("peak", "fidelity"),
    ])
    def test_option_keys_are_checked_against_the_mode(self, mode, key):
        with pytest.raises(ValueError, match=f"unknown campaign option\\(s\\) \\['{key}'\\]") as raised:
            small_campaign(mode=mode, options={key: True})
        assert "'observe'" in str(raised.value) and "'validate'" in str(raised.value)

    def test_every_option_the_executor_reads_is_accepted(self):
        small_campaign(options={"validate": True, "observe": {"metrics": True}})
        small_campaign(mode="peak", options={
            "validate": True, "observe": True, "deployment": "baseline",
            "rate_bounds_gbps": [1.0, 2.0], "tolerance_gbps": 1.0,
            "require_zero_premature_evictions": False,
        })

    @pytest.mark.parametrize("observe", [
        {"metrics": True, "sample_interval_us": float("inf")},
        {"metrics": True, "sample_interval_us": float("nan")},
        {"metrics": True, "sampel_interval_us": 10.0},
        3,
    ], ids=["inf", "nan", "typo", "int"])
    def test_the_observe_option_is_parsed_when_the_spec_is_built(self, observe):
        from repro.errors import ObserveSpecError

        with pytest.raises(ObserveSpecError):
            small_campaign(options={"observe": observe})

    @pytest.mark.parametrize("base, grid", [
        ({"faults": "no-such-profile"}, {}),
        ({}, {"faults": [None, "chaos-mix", "no-such-profile"]}),
        ({"faults": {"events": [{"kind": "link_down", "at_us": float("inf")}]}}, {}),
        ({}, {"faults": [{"generators": [{"kind": "backend_churn", "period_us": "x"}]}]}),
    ], ids=["base-name", "grid-name", "base-inline", "grid-inline"])
    def test_the_faults_values_are_parsed_when_the_spec_is_built(self, base, grid):
        from repro.errors import FaultSpecError

        with pytest.raises(FaultSpecError):
            small_campaign(base=base, grid={"send_rate_gbps": [2.0], **grid})

    def test_good_faults_values_build(self):
        inline = {"events": [{"kind": "park_drain", "at_frac": 0.5, "fraction": 0.5}]}
        campaign = small_campaign(grid={"faults": [None, "park-drain", inline]})
        assert [run.params["faults"] for run in campaign.expand()] == [
            None, "park-drain", inline,
        ]

    def test_the_observe_out_dir_is_not_an_observe_spec_key(self, tmp_path):
        small_campaign(options={"observe": {"metrics": True, "out_dir": str(tmp_path)}})

    def test_per_run_seed_policy_is_deterministic(self):
        campaign = small_campaign(seed_policy="per-run")
        seeds = [run.params["seed"] for run in campaign.expand()]
        assert seeds == [run.params["seed"] for run in campaign.expand()]
        assert len(set(seeds)) == len(seeds)
        assert seeds[0] == derived_seed(
            "fw_nat_lb_10ge", {"expiry_threshold": 1, "send_rate_gbps": 2.0}
        )

    def test_roundtrip_through_dict_and_files(self, tmp_path):
        campaign = small_campaign(base={"seed": 7}, description="roundtrip")
        plain = {
            "name": campaign.name, "scenario": campaign.scenario, "base": {"seed": 7},
            "grid": dict(campaign.grid), "time_scale": campaign.time_scale,
            "description": "roundtrip",
        }
        restored = CampaignSpec.from_dict(plain)
        assert [r.spec_hash for r in restored.expand()] == [
            r.spec_hash for r in campaign.expand()
        ]

        json_path = tmp_path / "campaign.json"
        json_path.write_text(json.dumps(plain))
        from_json = CampaignSpec.from_file(json_path)
        assert from_json.expand()[0].spec_hash == campaign.expand()[0].spec_hash

        yaml = pytest.importorskip("yaml")
        yaml_path = tmp_path / "campaign.yaml"
        yaml_path.write_text(yaml.safe_dump(plain))
        from_yaml = CampaignSpec.from_file(yaml_path)
        assert from_yaml.expand()[0].spec_hash == campaign.expand()[0].spec_hash

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            CampaignSpec.from_dict({"name": "x", "scenario": "fw_nat_lb_10ge", "grids": {}})

    def test_from_file_rejects_malformed_yaml(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "broken.yaml"
        path.write_text("name: [unclosed\nscenario: fw_nat_lb_10ge\n")
        with pytest.raises(ValueError, match="not valid YAML"):
            CampaignSpec.from_file(path)


class TestBuildScenario:
    def test_builder_kwargs_and_overrides_route_correctly(self):
        run = RunSpec(
            "fw_nat_lb_10ge",
            params={
                "send_rate_gbps": 9.0,      # builder kwarg
                "sram_fraction": 0.40,      # PayloadPark override
                "expiry_threshold": 10,     # PayloadPark override
                "seed": 7,                  # scenario override
                "framework": "opennetvm",   # special-cased override
            },
        )
        scenario = build_scenario(run)
        assert scenario.send_rate_gbps == 9.0
        assert scenario.payloadpark.sram_fraction == 0.40
        assert scenario.payloadpark.expiry_threshold == 10
        assert scenario.seed == 7
        assert scenario.framework is OPENNETVM

    def test_defaults_match_direct_scenario_construction(self):
        scenario = build_scenario(RunSpec("fw_nat_lb_10ge"))
        direct = fw_nat_lb_10ge()
        assert scenario.send_rate_gbps == direct.send_rate_gbps
        assert scenario.seed == direct.seed
        assert scenario.framework is NETBRICKS

    def test_packet_size_override_swaps_workload(self):
        scenario = build_scenario(
            RunSpec("fw_nat_lb_10ge", params={"packet_size": 384})
        )
        assert scenario.workload.name == "fixed-384B"

    def test_unknown_parameter_raises(self):
        with pytest.raises(ValueError, match="unknown campaign parameter"):
            build_scenario(RunSpec("fw_nat_lb_10ge", params={"warp_factor": 9}))

    def test_every_scenario_override_reaches_the_run(self):
        # An override the run never reads would give a campaign sweeping
        # it N spec hashes of one result.
        reads = set()

        class Recording(ScenarioConfig):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        scenario = fw_nat_lb_10ge()
        scenario.__class__ = Recording
        reads.clear()
        ExperimentRunner(time_scale=0.05).compare(scenario)
        assert SCENARIO_OVERRIDES <= reads

    def test_scenario_overrides_are_the_marked_fields(self):
        # Derived from the ScenarioConfig declaration; a name added or
        # lost here moves what a campaign file may say.
        assert SCENARIO_OVERRIDES == {
            "send_rate_gbps", "seed", "burst_size", "server_count", "explicit_drop",
            "duration_us", "warmup_us", "service_jitter", "cpu_ghz", "gen_link_gbps",
            "faults",
        }

    def test_payloadpark_overrides_are_the_config_fields(self):
        assert PAYLOADPARK_OVERRIDES == {
            "sram_fraction", "expiry_threshold", "parked_bytes", "min_split_payload",
            "table_entries", "payload_block_bytes", "enable_recirculation", "clock_max",
        }

    def test_missing_required_builder_arg_raises(self):
        with pytest.raises(ValueError, match="could not be built"):
            build_scenario(RunSpec("fixed_size_40ge", params={"packet_size": 384}))


#: (override, value) pairs outside the override's declared domain.  Each
#: once reached the engine: a NaN or zero rate failed inside a cell
#: (``int(nan)``, a division by zero), and an infinite link rate, CPU
#: clock or a negative jitter ran "ok" with a meaningless result.  So
#: did the PayloadPark fields: a fractional clock or block width was a
#: TypeError mid-run, a 70,000 clock failed at the 65,537th split, and a
#: fractional or NaN threshold ran and reported numbers.
OUT_OF_DOMAIN = [
    ("clock_max", 2.5),
    ("clock_max", 70_000),
    ("payload_block_bytes", 16.5),
    ("expiry_threshold", 1.5),
    ("expiry_threshold", float("nan")),
    ("min_split_payload", float("nan")),
    ("table_entries", 70_000),
    ("sram_fraction", float("inf")),
    ("gen_link_gbps", float("nan")),
    ("gen_link_gbps", float("inf")),
    ("gen_link_gbps", 0.0),
    ("gen_link_gbps", -1.0),
    ("cpu_ghz", float("nan")),
    ("cpu_ghz", 0.0),
    ("cpu_ghz", float("inf")),
    ("duration_us", float("nan")),
    ("duration_us", float("inf")),
    ("warmup_us", float("nan")),
    ("service_jitter", float("nan")),
    ("service_jitter", -1.0),
]


class TestOverrideDomains:
    """A numeric override outside its declared domain fails where it is
    declared: in the campaign spec and in the scenario, never in a cell."""

    @pytest.mark.parametrize("key,value", OUT_OF_DOMAIN)
    def test_campaign_spec_rejects(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            small_campaign(grid={key: [value]})
        with pytest.raises(ValueError, match=f"^{key} must be"):
            small_campaign(grid={}, base={key: value})

    @pytest.mark.parametrize("key,value", OUT_OF_DOMAIN)
    def test_scenario_rejects(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            build_scenario(RunSpec("fw_nat_lb_10ge", params={key: value}))

    @pytest.mark.parametrize(
        "axis",
        ["gen_link_gbps: [.nan]", "clock_max: [2.5]", "clock_max: [70000]"],
        ids=["nan-link", "fractional-clock", "wide-clock"],
    )
    def test_campaign_run_exits_2_before_any_cell(self, tmp_path, capsys, axis):
        from repro.cli import main

        spec = tmp_path / "bad.yaml"
        spec.write_text(f"name: bad-axis\nscenario: fw_nat_lb_10ge\ngrid:\n  {axis}\n")
        store = tmp_path / "bad.jsonl"
        assert main(["campaign", "run", str(spec), "--workers", "1", "--no-bus",
                     "--store", str(store)]) == 2
        assert not store.exists()
        assert capsys.readouterr().err.count("error:") == 1

    def test_link_rejects_non_finite_bandwidth(self):
        from repro.netsim.eventloop import EventLoop
        from repro.netsim.link import Link
        from repro.netsim.node import Node

        env = EventLoop()
        with pytest.raises(ValueError, match="bandwidth_gbps must be finite"):
            Link(env, Node(env, "a"), 0, Node(env, "b"), 0, bandwidth_gbps=float("nan"))


class TestResultStore:
    def test_append_load_and_resume_set(self, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        assert store.load() == []
        assert store.completed_hashes() == set()
        store.append({"spec_hash": "aa", "status": "ok", "metrics": {"x": 1}})
        store.append({"spec_hash": "bb", "status": "error", "error": "boom"})
        assert store.record_count() == 2
        assert store.completed_hashes() == {"aa"}

    def test_corrupt_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = ResultStore(path)
        store.append({"spec_hash": "aa", "status": "ok"})
        with path.open("a") as handle:
            handle.write('{"spec_hash": "bb", "status": "o')  # killed mid-write
        assert store.completed_hashes() == {"aa"}
        # The store stays appendable after the torn write.
        store.append({"spec_hash": "cc", "status": "ok"})
        assert store.completed_hashes() == {"aa", "cc"}

    def test_corrupt_trailing_line_warns(self, tmp_path):
        import logging

        path = tmp_path / "runs.jsonl"
        store = ResultStore(path)
        store.append({"spec_hash": "aa", "status": "ok"})
        with path.open("a") as handle:
            handle.write('{"spec_hash": "bb", "status": "o')  # truncated record
        # The CLI's stderr handler sets propagate=False on the "repro"
        # root, so listen on the store's own logger directly.
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        store_logger = logging.getLogger("repro.orchestrator.store")
        handler = Capture()
        store_logger.addHandler(handler)
        try:
            assert [r["spec_hash"] for r in store.load()] == ["aa"]
        finally:
            store_logger.removeHandler(handler)
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        message = records[0].getMessage()
        assert str(path) in message and ":2:" in message
        assert "torn" in message

    def test_latest_record_wins(self, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        store.append({"spec_hash": "aa", "status": "ok", "metrics": {"x": 1}})
        store.append({"spec_hash": "aa", "status": "ok", "metrics": {"x": 2}})
        assert store.latest_by_hash()["aa"]["metrics"] == {"x": 2}

    def test_ok_wins_over_later_failed_retry(self, tmp_path):
        """Regression: a failed retry after an ok record must not shadow it."""
        store = ResultStore(tmp_path / "runs.jsonl")
        store.append({"spec_hash": "aa", "status": "ok", "metrics": {"x": 1}})
        store.append({"spec_hash": "aa", "status": "error", "error": "flake"})
        store.append({"spec_hash": "bb", "status": "error", "error": "boom"})

        latest = store.latest_by_hash()
        assert latest["aa"]["status"] == "ok"
        assert latest["aa"]["metrics"] == {"x": 1}
        assert latest["bb"]["status"] == "error"  # never-ok: real status
        assert store.completed_hashes() == {"aa"}

    def test_attempt_counts_track_failures_only(self, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        store.append({"spec_hash": "aa", "status": "error", "error": "1"})
        store.append({"spec_hash": "aa", "status": "violation", "error": "2"})
        store.append({"spec_hash": "bb", "status": "ok"})
        store.append({"spec_hash": "cc", "status": "exhausted", "attempts": 3})
        # ok and exhausted markers are not attempts; "dd" has no record.
        assert store.cell_states(["aa", "bb", "cc", "dd"]) == [
            ("failing", 2), ("ok", 0), ("exhausted", 0), ("pending", 0),
        ]

    def test_record_count_extends_from_cursor(self, tmp_path):
        """Regression: __len__ must not rescan the file on every poll."""
        path = tmp_path / "runs.jsonl"
        store = ResultStore(path)
        store.append({"spec_hash": "aa", "status": "ok"})
        assert len(store) == 1
        # An external writer appends (another process's perspective).
        with path.open("a") as handle:
            handle.write('{"spec_hash": "bb", "status": "ok"}\n')
            handle.write('{"spec_hash": "cc", "status": "o')  # torn tail
        assert store.record_count() == 2  # torn line stays unconsumed
        with path.open("a") as handle:
            handle.write('k"}\n')  # the tail completes
        assert store.record_count() == 3
        assert store.completed_hashes() == {"aa", "bb", "cc"}
        # After consuming everything, the cursor sits at EOF: a repeat
        # poll folds zero new lines.
        assert store.refresh() == 0

    def test_truncated_file_rebuilds_index(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = ResultStore(path)
        store.append({"spec_hash": "aa", "status": "ok"})
        store.append({"spec_hash": "bb", "status": "ok"})
        assert len(store) == 2
        path.write_text('{"spec_hash": "cc", "status": "ok"}\n')
        assert store.completed_hashes() == {"cc"}
        assert len(store) == 1


class TestShardedStore:
    def test_appends_split_across_shards_and_read_back(self, tmp_path):
        base = tmp_path / "grid.jsonl"
        store = ResultStore(base, shards=4)
        hashes = [f"{value:016x}" for value in range(8)]
        for spec_hash in hashes:
            store.append({"spec_hash": spec_hash, "status": "ok"})
        assert not base.exists()  # sharded layout only
        shard_files = sorted(tmp_path.glob("grid.shard-*.jsonl"))
        assert len(shard_files) == 4
        assert store.completed_hashes() == set(hashes)
        assert store.record_count() == 8

    def test_one_hash_always_lands_in_one_file(self, tmp_path):
        store = ResultStore(tmp_path / "grid.jsonl", shards=3)
        for attempt in range(3):
            store.append({"spec_hash": "ab34", "status": "error", "n": attempt})
        store.append({"spec_hash": "ab34", "status": "ok", "n": 99})
        holding = [
            path for path in tmp_path.glob("grid.shard-*.jsonl")
            if "ab34" in path.read_text()
        ]
        assert len(holding) == 1
        # Per-hash append order survived: latest-wins still works.
        assert store.latest_by_hash()["ab34"]["n"] == 99
        assert store.cell_states(["ab34"]) == [("ok", 3)]

    def test_legacy_single_file_resumes_into_shards(self, tmp_path):
        base = tmp_path / "grid.jsonl"
        legacy = ResultStore(base)
        legacy.append({"spec_hash": "aa", "status": "ok"})
        # The same campaign, promoted to shards: old records still count.
        promoted = ResultStore(base, shards=2)
        assert promoted.completed_hashes() == {"aa"}
        promoted.append({"spec_hash": "bb", "status": "ok"})
        assert base.read_text().count("\n") == 1  # legacy file untouched
        assert promoted.completed_hashes() == {"aa", "bb"}
        # A fresh reader with no shard config auto-detects the layout.
        fresh = ResultStore(base)
        assert fresh.completed_hashes() == {"aa", "bb"}
        assert fresh.shards == 1  # one shard file detected

    def test_shard_detection_ignores_other_campaigns(self, tmp_path):
        other = ResultStore(tmp_path / "grid-extra.jsonl", shards=2)
        other.append({"spec_hash": "ff", "status": "ok"})
        store = ResultStore(tmp_path / "grid.jsonl")
        assert store.completed_hashes() == set()

    def test_rejects_bad_shard_count(self, tmp_path):
        with pytest.raises(ValueError, match="shards"):
            ResultStore(tmp_path / "grid.jsonl", shards=0)


class TestExecutor:
    def test_execute_run_records_failure_instead_of_raising(self):
        # duration shorter than warmup -> ExperimentRunner raises.
        record = execute_run(
            RunSpec("fw_nat_lb_10ge", params={"duration_us": 10.0, "warmup_us": 20.0})
        )
        assert record["status"] == "error"
        assert "warmup" in record["error"]

    def test_parallel_campaign_persists_and_resumes(self, tmp_path):
        """Acceptance: an 8-point grid over 2 workers, one record per run,
        and a second invocation skips every completed point."""
        campaign = small_campaign()
        store = ResultStore(tmp_path / "grid.jsonl")

        first = CampaignExecutor(workers=2).run_campaign(campaign, store=store)
        assert first.total == 8
        assert first.executed == 8
        assert first.failed == 0
        assert store.record_count() == 8
        hashes = {record["spec_hash"] for record in store.load()}
        assert hashes == {run.spec_hash for run in campaign.expand()}

        second = CampaignExecutor(workers=2).run_campaign(campaign, store=store)
        assert second.skipped == 8
        assert second.executed == 0
        assert store.record_count() == 8

    def test_parallel_matches_serial_results(self, tmp_path):
        campaign = small_campaign(grid={"send_rate_gbps": [4.0, 8.0]})
        serial = CampaignExecutor(workers=1).run_campaign(campaign)
        parallel = CampaignExecutor(workers=2).run_campaign(campaign)
        by_hash = lambda summary: {  # noqa: E731
            record["spec_hash"]: record["metrics"] for record in summary.records
        }
        assert by_hash(serial) == by_hash(parallel)

    def test_resume_retries_failed_runs(self, tmp_path):
        campaign = small_campaign(grid={"send_rate_gbps": [4.0]})
        store = ResultStore(tmp_path / "grid.jsonl")
        spec_hash = campaign.expand()[0].spec_hash
        store.append({"spec_hash": spec_hash, "status": "error", "error": "crash"})
        summary = CampaignExecutor(workers=1).run_campaign(campaign, store=store)
        assert summary.executed == 1
        assert store.completed_hashes() == {spec_hash}

    def test_resume_exhausts_cells_past_the_retry_budget(self, tmp_path):
        """Regression: resume must not re-run a deterministically failing
        cell forever — at the budget it is stamped `exhausted` once."""
        campaign = small_campaign(grid={"send_rate_gbps": [4.0]})
        store = ResultStore(tmp_path / "grid.jsonl")
        spec_hash = campaign.expand()[0].spec_hash
        for attempt in range(3):
            store.append(
                {"spec_hash": spec_hash, "status": "error", "error": f"boom {attempt}"}
            )

        summary = CampaignExecutor(workers=1, max_attempts=3).run_campaign(
            campaign, store=store
        )
        assert summary.executed == 1
        assert summary.failed == 1
        assert summary.exhausted == 1
        marker = store.latest_by_hash()[spec_hash]
        assert marker["status"] == "exhausted"
        assert marker["attempts"] == 3
        assert "retry budget exhausted" in marker["error"]

        # A second resume skips the cell without stamping another marker.
        again = CampaignExecutor(workers=1, max_attempts=3).run_campaign(
            campaign, store=store
        )
        assert again.executed == 0
        assert again.skipped == 1
        assert again.exhausted == 0
        assert store.record_count() == 4

    def test_sharded_resume_keeps_exhausted_terminal(self, tmp_path):
        """Regression (sharded path): once a cell carries only a terminal
        `exhausted` marker inside a shard file, no surface may call it
        pending — a fresh auto-detecting reader must find the marker,
        the aggregate row must say 'exhausted', and a resume must skip
        the cell without stamping another marker."""
        campaign = small_campaign(grid={"send_rate_gbps": [4.0]})
        spec_hash = campaign.expand()[0].spec_hash
        seeded = ResultStore(tmp_path / "grid.jsonl", shards=3)
        for attempt in range(3):
            seeded.append(
                {"spec_hash": spec_hash, "status": "error", "error": f"boom {attempt}"}
            )
        summary = CampaignExecutor(workers=1, max_attempts=3).run_campaign(
            campaign, store=seeded
        )
        assert summary.exhausted == 1

        # Re-open with no shard config: the layout is auto-detected and
        # the terminal marker read back out of its shard file.
        fresh = ResultStore(tmp_path / "grid.jsonl")
        latest = fresh.latest_by_hash()
        assert latest[spec_hash]["status"] == "exhausted"
        assert fresh.completed_hashes() == set()

        # The classification `campaign status` prints: exhausted, not
        # pending (and certainly not completed).
        assert fresh.cell_states([spec_hash]) == [("exhausted", 3)]

        # The aggregate surface agrees.
        rows = campaign_rows(campaign, latest, include_missing=True)
        assert [row["status"] for row in rows] == ["exhausted"]

        # Resuming against the re-opened store skips the cell cleanly.
        again = CampaignExecutor(workers=1, max_attempts=3).run_campaign(
            campaign, store=fresh
        )
        assert again.executed == 0
        assert again.skipped == 1
        assert again.exhausted == 0
        assert fresh.record_count() == 4  # 3 errors + 1 marker, nothing new

    def test_below_budget_failures_are_still_retried(self, tmp_path):
        campaign = small_campaign(grid={"send_rate_gbps": [4.0]})
        store = ResultStore(tmp_path / "grid.jsonl")
        spec_hash = campaign.expand()[0].spec_hash
        store.append({"spec_hash": spec_hash, "status": "error", "error": "flake"})
        store.append({"spec_hash": spec_hash, "status": "error", "error": "flake"})
        summary = CampaignExecutor(workers=1, max_attempts=3).run_campaign(
            campaign, store=store
        )
        assert summary.executed == 1
        assert summary.exhausted == 0
        assert store.completed_hashes() == {spec_hash}

    def test_max_attempts_zero_never_exhausts(self, tmp_path):
        campaign = small_campaign(grid={"send_rate_gbps": [4.0]})
        store = ResultStore(tmp_path / "grid.jsonl")
        spec_hash = campaign.expand()[0].spec_hash
        for _ in range(10):
            store.append({"spec_hash": spec_hash, "status": "error", "error": "x"})
        summary = CampaignExecutor(workers=1, max_attempts=0).run_campaign(
            campaign, store=store
        )
        assert summary.exhausted == 0
        assert store.completed_hashes() == {spec_hash}

    def test_peak_mode_records_peak_metrics(self):
        record = execute_run(
            RunSpec(
                "memory_sweep",
                mode="peak",
                params={"sram_fraction": 0.26},
                options={
                    "deployment": "payloadpark",
                    "rate_bounds_gbps": [4.0, 12.0],
                    "tolerance_gbps": 8.0,
                },
                time_scale=FAST,
            )
        )
        assert record["status"] == "ok"
        assert record["metrics"]["peak_send_rate_gbps"] >= 4.0
        assert "peak_goodput_to_nf_gbps" in record["metrics"]


@pytest.mark.parametrize("owner", [
    lambda **knobs: CampaignExecutor(workers=2, **knobs),
    lambda **knobs: DispatchLoop(processes=2, **knobs),
], ids=["executor", "dispatch-loop"])
class TestRetryKnobsAreCheckedWhereDeclared:
    """Both classes that take the timeout / backoff knobs refuse a
    non-finite one when built, before any worker process exists."""

    @pytest.mark.parametrize("field, value, message", [
        ("cell_timeout_s", float("inf"), "cell_timeout_s must be finite, got inf"),
        ("cell_timeout_s", float("nan"), "cell_timeout_s must be finite, got nan"),
        ("retry_backoff_s", float("inf"), "retry_backoff_s must be finite"),
        ("retry_backoff_s", float("nan"), "retry_backoff_s must be finite"),
        ("retry_backoff_s", float("-inf"), "retry_backoff_s must be finite"),
    ], ids=["timeout-inf", "timeout-nan", "backoff-inf", "backoff-nan", "backoff--inf"])
    def test_a_non_finite_value_is_refused(self, owner, field, value, message):
        with pytest.raises(ValueError, match=message):
            owner(**{field: value})

    def test_no_timeout_and_no_backoff_are_legal(self, owner):
        built = owner(cell_timeout_s=None, retry_backoff_s=0.0)
        assert (built.cell_timeout_s, built.retry_backoff_s) == (None, 0.0)


class TestLeaseAffinity:
    """Which ready cell an idle worker is leased (no processes started)."""

    @staticmethod
    def _loop(held):
        loop = DispatchLoop(processes=len(held))
        for worker_id, baselines in enumerate(held):
            loop._workers[worker_id] = SimpleNamespace(baselines=set(baselines))
        return loop

    @staticmethod
    def _cells(*baselines):
        return [
            _PendingCell(RunSpec("fw_nat_lb_10ge", params={"seed": index}), 0, 0.0, key)
            for index, key in enumerate(baselines)
        ]

    def test_a_held_baseline_wins_over_age(self):
        loop = self._loop([{"a"}, {"b"}])
        cells = self._cells("b", "c", "a")
        assert loop._choose(loop._workers[0], cells) is cells[2]

    def test_then_a_baseline_no_other_worker_holds(self):
        loop = self._loop([{"a"}, {"b"}])
        cells = self._cells("b", None, "c")
        assert loop._choose(loop._workers[0], cells) is cells[1]
        cells = self._cells("b", "c")
        assert loop._choose(loop._workers[0], cells) is cells[1]

    def test_then_the_oldest(self):
        loop = self._loop([set(), {"a", "b"}])
        cells = self._cells("b", "a")
        assert loop._choose(loop._workers[0], cells) is cells[0]


class TestAggregate:
    def test_campaign_rows_follow_grid_order(self, tmp_path):
        campaign = small_campaign(grid={"send_rate_gbps": [8.0, 4.0]})
        store = ResultStore(tmp_path / "grid.jsonl")
        CampaignExecutor(workers=1).run_campaign(campaign, store=store)
        rows = campaign_rows(
            campaign, store.latest_by_hash(), metric_columns=["goodput_gain_percent"]
        )
        assert [row["send_rate_gbps"] for row in rows] == [8.0, 4.0]
        assert all("goodput_gain_percent" in row for row in rows)

    def test_campaign_rows_marks_missing_points(self):
        campaign = small_campaign(grid={"send_rate_gbps": [4.0, 8.0]})
        rows = campaign_rows(campaign, {}, include_missing=True)
        assert [row["status"] for row in rows] == ["pending", "pending"]
        assert campaign_rows(campaign, {}) == []
