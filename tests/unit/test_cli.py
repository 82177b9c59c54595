"""Unit tests for the command-line interface."""

import inspect
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.errors import EmptyWindowError, WorkloadSpecError
from repro.experiments import figures
from repro.experiments.figures import FIGURES, Sweep
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenarios import fixed_size_40ge
from repro.orchestrator.store import ResultStore
from repro.telemetry.report import COMPARISON_COLUMNS, render_table

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The run stack's import budget; a script, so CI runs it without pytest.
IMPORT_BUDGET = Path(__file__).with_name("import_budget.py")


def _error_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if "error:" in line]


def _one_error(capsys):
    """The message of the single ``error:`` line on stderr."""
    (line,) = _error_lines(capsys)
    return line.split("error: ", 1)[1]


class TestFigureRegistry:
    def test_list_prints_exactly_the_registry(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(None, 1) for line in lines] == [
            [name, FIGURES[name].summary] for name in sorted(FIGURES)
        ]

    def test_every_entry_has_a_summary_and_a_title(self):
        for name, figure in FIGURES.items():
            assert figure.summary.strip() and figure.title.strip(), name

    def test_readme_table_lists_exactly_the_registry(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Figures and tables")[1].split("\n## ")[0]
        rows = re.findall(r"^\| `python -m repro run (\w+)` \|", section, re.M)
        assert sorted(rows) == sorted(FIGURES)

    @pytest.mark.parametrize(
        "name, result, epilogue",
        [
            (
                "fig06",
                {"rows": [{"packet_size_bytes": 64, "cdf": 0.05}],
                 "analytic_mean_bytes": 884.6, "paper_mean_bytes": 882},
                ["analytic_mean_bytes: 884.6", "paper_mean_bytes: 882"],
            ),
            (
                "fig07",
                [{"send_rate_gbps": 2.0, "goodput_gain_percent": -20.0}],
                ["", "§6.2.1 — FW -> NAT on OpenNetVM, 40 GbE NIC",
                 render_table([{"send_rate_gbps": 30.0}])],
            ),
            (
                "fig10",
                [{"server": 1, "goodput_gain_percent": 1.0},
                 {"server": 2, "goodput_gain_percent": 2.5}],
                ["average goodput gain: 1.75% (paper: 31.22%)"],
            ),
            (
                "fig11",
                [{"server": 1, "latency_win_percent": 9.0},
                 {"server": 2, "latency_win_percent": 10.0}],
                ["average latency win: 9.50% (paper: 9.4%)"],
            ),
        ],
    )
    def test_epilogue_prints_below_the_table(
        self, name, result, epilogue, capsys, monkeypatch
    ):
        monkeypatch.setitem(FIGURES, name, replace(FIGURES[name], run=lambda: result))
        monkeypatch.setattr(
            figures, "run_40ge_fw_nat", lambda: {"send_rate_gbps": 30.0}
        )
        assert main(["run", name]) == 0
        rows = result["rows"] if name == "fig06" else result
        expected = [FIGURES[name].title, render_table(rows), *epilogue]
        assert capsys.readouterr().out == "\n".join(expected) + "\n"

    def test_no_other_figure_has_an_epilogue(self):
        assert {name for name, figure in FIGURES.items() if figure.epilogue} == {
            "fig06", "fig07", "fig10", "fig11",
        }

    @pytest.mark.parametrize("name", ["fig07", "fig14"])
    def test_unrunnable_time_scale_is_one_error_line(self, name, capsys):
        # Both figures loop in process, so the runner's ValueError reaches
        # the CLI as itself instead of as a failed-campaign RuntimeError.
        assert main(["run", name, "--time-scale", "1e-7"]) == 2
        errors = _error_lines(capsys)
        assert len(errors) == 1
        assert errors[0].endswith("error: warmup must be shorter than the total duration")

    def test_an_empty_measurement_window_is_one_error_line(self, capsys):
        # fig08's first 40 GbE point sends its first burst after the
        # 4.5 µs window of time scale 0.001: a table of zeros is no result.
        assert main(["run", "fig08", "--time-scale", "0.001"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = [line for line in captured.err.splitlines() if "error:" in line]
        assert "scenario 'firewall-1024B-40ge' (baseline)" in line
        assert "sent 0 packets" in line and "time scale 0.001" in line

    def test_the_runner_refuses_an_empty_window(self):
        with pytest.raises(EmptyWindowError, match=r"'nat-1492B-40ge'.*time scale 0\.05"):
            ExperimentRunner(time_scale=0.05).compare(
                fixed_size_40ge("nat", 1492, send_rate_gbps=0.5)
            )

    def test_negative_rate_is_a_typed_error(self):
        with pytest.raises(WorkloadSpecError, match="rate_gbps must be positive"):
            FIGURES["fig07"].run(
                runner=ExperimentRunner(time_scale=0.05), send_rate_gbps=(-1.0,)
            )

    def test_declared_sweeps_name_builder_parameters_and_comparison_columns(self):
        sweeps = {
            name: figure.run.__self__
            for name, figure in FIGURES.items()
            if isinstance(getattr(figure.run, "__self__", None), Sweep)
        }
        assert sorted(sweeps) == ["fig07", "fig08", "fig09", "fig15", "fig16"]
        for name, sweep in sweeps.items():
            parameters = inspect.signature(sweep.scenario).parameters
            assert {*sweep.axes, *sweep.fixed} <= set(parameters), name
            assert set(sweep.columns) <= set(COMPARISON_COLUMNS), name

    @pytest.mark.parametrize(
        "axes, columns, fixed, named",
        [
            ({"packet_sise": ("packet_size_bytes", (256,))}, (), {}, "packet_sise"),
            ({}, (), {"send_rate": 30.0}, "send_rate"),
            ({}, ("goodput_gain_pct",), {}, "goodput_gain_pct"),
        ],
    )
    def test_misspelt_declaration_fails_when_it_is_made(self, axes, columns, fixed, named):
        with pytest.raises(TypeError, match=named):
            Sweep(fixed_size_40ge, axes, columns, fixed)

    def test_unknown_axis_override_is_a_type_error_naming_it(self):
        with pytest.raises(TypeError, match=r"no axis \['bogus'\].*'send_rate_gbps'"):
            FIGURES["fig07"].run(bogus=(1,))

    def test_cold_import_of_the_run_stack_skips_figures_and_http(self):
        """The perf ledger's `setup_s` import line loads only what a run uses.

        In one fresh interpreter: no figure module, `http.server`,
        `multiprocessing*`, `traceback`, closed-loop / replay / generative
        workload or PCAP module, at most the budgeted `repro.*` count,
        and a short `fig07_sat` compare afterwards imports nothing more.
        """
        done = subprocess.run(
            [sys.executable, str(IMPORT_BUDGET)],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        assert "a fig07_sat compare imported 0 more" in done.stdout


class TestCli:
    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_run_executes_cheap_experiment(self, capsys):
        assert main(["run", "table1"]) == 0
        output = capsys.readouterr().out
        assert "Packet Header Vector" in output

    def test_run_fig06(self, capsys):
        assert main(["run", "fig06"]) == 0
        assert "packet_size_bytes" in capsys.readouterr().out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_parser_has_quickstart_rate_option(self):
        parser = build_parser()
        args = parser.parse_args(["quickstart", "--rate", "8.5"])
        assert args.rate == 8.5

    @pytest.mark.parametrize("rate", ["0", "-1"])
    def test_quickstart_nonpositive_rate_is_one_error_line(self, rate, capsys):
        assert main(["quickstart", "--rate", rate]) == 2
        assert _one_error(capsys) == "rate_gbps must be positive"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["quickstart", "--rate", "inf"], "rate_gbps must be finite, got inf"),
            (["quickstart", "--rate", "nan"], "rate_gbps must be finite, got nan"),
            (["run", "fig07", "--time-scale", "inf"], "time_scale must be finite, got inf"),
            (["run", "fig07", "--time-scale", "nan"], "time_scale must be finite, got nan"),
        ],
        ids=["rate-inf", "rate-nan", "time-scale-inf", "time-scale-nan"],
    )
    def test_non_finite_number_is_one_error_line_not_a_hang(self, argv, message):
        # A fresh process under a wall-clock cap: `--rate inf` used to
        # pace the generator at the 1 ns floor and never return.
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True, timeout=20,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        (line,) = done.stderr.splitlines()
        assert line.endswith(f"error: {message}")

    def test_rate_above_the_generator_link_is_one_error_line_not_a_hang(self):
        # 1e308 is finite and positive, so it used to pace the generator
        # at the 1 ns floor; the generator link (100 Gb/s) bounds it now.
        done = subprocess.run(
            [sys.executable, "-m", "repro", "quickstart", "--rate", "1e308"],
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True, text=True, timeout=20,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        (line,) = done.stderr.splitlines()
        assert "error: send_rate_gbps 1e+308 exceeds gen_link_gbps 100" in line

    def test_fuzz_with_no_scenarios_is_an_error_not_a_green_run(self, capsys):
        assert main(["validate", "fuzz", "--scenarios", "0", "--no-corpus"]) == 2
        assert _one_error(capsys) == "max_scenarios must be at least 1"

    def test_validate_run_prints_each_violation_and_exits_4(self, capsys):
        # A scenario that cannot be built is one execution violation.
        argv = ["validate", "run", "-p", "cpu_ghz=0", "--time-scale", "0.01", "--relations", ""]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert "result: FAIL (1 violation(s))" in captured.out
        (line,) = [line for line in captured.err.splitlines() if "VIOLATION" in line]
        assert "[execution]" in line and "cpu_ghz must be positive" in line

    def test_run_json_emits_parseable_payload(self, capsys):
        assert main(["run", "table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["experiment"] == "table1"
        assert isinstance(payload["result"], list)

    def test_run_json_seed_is_reproducible_and_plumbed(self, capsys):
        from repro.experiments import fig06_packet_size_cdf

        assert main(["run", "fig06", "--json", "--seed", "3"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["run", "fig06", "--json", "--seed", "3"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        direct = fig06_packet_size_cdf.run(seed=3)
        assert first["result"]["sampled_mean_bytes"] == direct["sampled_mean_bytes"]


class TestCampaignCli:
    def _write_spec(self, tmp_path, time_scale=0.05):
        spec = {
            "name": "cli-grid",
            "scenario": "fw_nat_lb_10ge",
            "grid": {"send_rate_gbps": [4.0, 8.0]},
            "time_scale": time_scale,
        }
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(spec))
        return path

    def test_campaign_run_status_report_cycle(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        store = tmp_path / "results.jsonl"

        assert main(["campaign", "run", str(spec), "--store", str(store), "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "2 executed" in out and "0 skipped" in out
        assert ResultStore(store).record_count() == 2

        # Resume: everything is already done; only event lines are added.
        assert main(["campaign", "run", str(spec), "--store", str(store), "--workers", "1"]) == 0
        assert "0 executed" in capsys.readouterr().out and \
            ResultStore(store).record_count() == 2

        assert main(["campaign", "status", str(spec), "--store", str(store)]) == 0
        status = capsys.readouterr().out
        assert "completed: 2" in status and "pending:   0" in status

        assert main(["campaign", "report", str(spec), "--store", str(store),
                     "--columns", "goodput_gain_percent", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["send_rate_gbps"] for row in payload["rows"]] == [4.0, 8.0]
        assert all("goodput_gain_percent" in row for row in payload["rows"])

    def test_sharded_report_is_byte_identical_to_single_shard(self, tmp_path, capsys):
        """Acceptance: a sharded store reproduces the exact `campaign
        report` output of the single-shard baseline."""
        spec = self._write_spec(tmp_path)
        single = tmp_path / "single.jsonl"
        sharded = tmp_path / "sharded.jsonl"

        assert main(["campaign", "run", str(spec), "--store", str(single),
                     "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", str(spec), "--store", str(sharded),
                     "--shards", "3", "--workers", "1"]) == 0
        capsys.readouterr()
        assert not sharded.exists()  # records live in the shard files
        assert sorted(tmp_path.glob("sharded.shard-*.jsonl"))

        assert main(["campaign", "report", str(spec), "--store", str(single)]) == 0
        baseline = capsys.readouterr().out
        assert main(["campaign", "report", str(spec), "--store", str(sharded)]) == 0
        assert capsys.readouterr().out == baseline
        assert "send_rate_gbps" in baseline

        # `status` agrees too, modulo the store path/shards lines.
        assert main(["campaign", "status", str(spec), "--store", str(sharded)]) == 0
        status = capsys.readouterr().out
        assert "completed: 2" in status and "pending:   0" in status

    def test_status_reports_exhausted_cells(self, tmp_path, capsys):
        from repro.orchestrator import CampaignSpec, ResultStore

        spec = self._write_spec(tmp_path)
        store = tmp_path / "results.jsonl"
        campaign = CampaignSpec.from_file(spec)
        first, second = campaign.expand()
        result_store = ResultStore(store)
        result_store.append(
            {"spec_hash": first.spec_hash, "status": "ok", "metrics": {}}
        )
        result_store.append(
            {
                "spec_hash": second.spec_hash,
                "status": "exhausted",
                "attempts": 3,
                "error": "retry budget exhausted after 3 failed attempt(s)",
            }
        )
        assert main(["campaign", "status", str(spec), "--store", str(store)]) == 0
        status = capsys.readouterr().out
        assert "completed: 2" not in status
        assert "completed: 1" in status
        assert "pending:   0" in status
        assert "exhausted: 1" in status

    # A deleted setting's name is refused like any unknown axis.
    @pytest.mark.parametrize("axis", ["fast_path", "split_enabled", "enable_explicit_drops"])
    def test_campaign_run_rejects_an_unknown_axis_before_running(self, axis, tmp_path, capsys):
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps({
            "name": "stale-axis",
            "scenario": "fw_nat_lb_10ge",
            "grid": {"send_rate_gbps": [4.0], axis: [True, False]},
            "time_scale": 0.05,
        }))
        store = tmp_path / "results.jsonl"
        assert main(["campaign", "run", str(spec), "--store", str(store), "--workers", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"unknown campaign parameter {axis!r}" in errors[0]
        assert list(tmp_path.iterdir()) == [spec]

    def test_campaign_run_rejects_a_top_level_validate_key(self, tmp_path, capsys):
        # ``validate`` is spelt once, under ``options:``.
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps({
            "name": "top-level-validate", "scenario": "fw_nat_lb_10ge", "validate": True,
            "grid": {"send_rate_gbps": [4.0]}, "time_scale": 0.05,
        }))
        store = tmp_path / "results.jsonl"
        assert main(["campaign", "run", str(spec), "--store", str(store), "--workers", "1"]) == 2
        assert "unknown campaign keys: ['validate']" in _one_error(capsys)
        assert list(tmp_path.iterdir()) == [spec]

    @pytest.mark.parametrize("where", ["base", "grid"])
    def test_campaign_run_rejects_a_bad_faults_value_before_running(
        self, where, tmp_path, capsys
    ):
        campaign = {"name": "bad-faults", "scenario": "fw_nat_lb_10ge",
                    "grid": {"send_rate_gbps": [4.0]}, "time_scale": 0.05}
        if where == "base":
            campaign["base"] = {"faults": "no-such-profile"}
        else:
            campaign["grid"]["faults"] = [None, "link-flap", "no-such-profile"]
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps(campaign))
        store = tmp_path / "results.jsonl"
        assert main(["campaign", "run", str(spec), "--store", str(store), "--workers", "1"]) == 2
        assert "unknown fault profile 'no-such-profile'" in _one_error(capsys)
        assert list(tmp_path.iterdir()) == [spec]

    BAD_DISPATCH_VALUES = {
        "--cell-timeout=0": "cell_timeout_s must be positive",
        "--cell-timeout=-5": "cell_timeout_s must be positive",
        "--retry-backoff=-1": "retry_backoff_s must be >= 0",
        "--max-attempts=-1": "max_attempts must be >= 0",
    }

    @pytest.mark.parametrize("dispatch", ["--workers=1", "--workers=2"])
    @pytest.mark.parametrize("flag", BAD_DISPATCH_VALUES)
    def test_campaign_run_rejects_bad_dispatch_values_with_nothing_on_disk(
        self, flag, dispatch, tmp_path, capsys
    ):
        spec = self._write_spec(tmp_path)
        store = tmp_path / "results.jsonl"
        assert main(["campaign", "run", str(spec), "--store", str(store),
                     dispatch, flag]) == 2
        assert _one_error(capsys) == self.BAD_DISPATCH_VALUES[flag]
        assert list(tmp_path.iterdir()) == [spec]  # no store

    BAD_TIME_SCALES = {
        "-1": "time_scale must be positive",
        "0": "time_scale must be positive",
        "inf": "time_scale must be finite, got inf",
        "nan": "time_scale must be finite, got nan",
    }

    @pytest.mark.parametrize("value", BAD_TIME_SCALES)
    def test_campaign_run_rejects_a_bad_time_scale_with_nothing_on_disk(
        self, value, tmp_path, capsys
    ):
        # Not even the store's campaign_started line is written.
        spec = self._write_spec(tmp_path)
        store = tmp_path / "results.jsonl"
        assert main(["campaign", "run", str(spec), "--store", str(store),
                     "--workers", "1", f"--time-scale={value}"]) == 2
        assert _one_error(capsys) == self.BAD_TIME_SCALES[value]
        assert list(tmp_path.iterdir()) == [spec]

    BAD_HEARTBEATS = {
        "-1": "heartbeat_interval_s must be positive",
        "0": "heartbeat_interval_s must be positive",
        "inf": "heartbeat_interval_s must be finite, got inf",
        "nan": "heartbeat_interval_s must be finite, got nan",
    }

    @pytest.mark.parametrize("value", BAD_HEARTBEATS)
    def test_campaign_run_rejects_a_bad_heartbeat_with_nothing_on_disk(
        self, value, tmp_path, capsys
    ):
        # `-1` and `0` used to become 10 ms and `nan` ran on; each wrote a
        # store and exited 0.
        spec = self._write_spec(tmp_path)
        store = tmp_path / "results.jsonl"
        assert main(["campaign", "run", str(spec), "--store", str(store),
                     "--workers", "1", f"--heartbeat={value}"]) == 2
        assert _one_error(capsys) == self.BAD_HEARTBEATS[value]
        assert list(tmp_path.iterdir()) == [spec]

    def test_campaign_run_summary_counts_simulated_baselines(self, tmp_path, capsys):
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps({
            "name": "shared",
            "scenario": "fw_nat_lb_10ge",
            "grid": {"send_rate_gbps": [4.0], "expiry_threshold": [1, 10]},
            "time_scale": 0.05,
        }))
        store = tmp_path / "results.jsonl"
        assert main(["campaign", "run", str(spec), "--store", str(store),
                     "--workers", "1"]) == 0
        assert "2 executed, 1 baselines simulated, 0 failed, 0 skipped" in (
            capsys.readouterr().out
        )

    def test_campaign_run_rejects_zero_workers_with_nothing_on_disk(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        store = tmp_path / "results.jsonl"
        assert main(["campaign", "run", str(spec), "--store", str(store),
                     "--workers=0"]) == 2
        assert _one_error(capsys) == "workers must be at least 1"
        assert list(tmp_path.iterdir()) == [spec]

    BAD_SERVE_VALUES = {
        "--port=99999": "--port must be in 0..65535, got 99999",
        "--port=-1": "--port must be in 0..65535, got -1",
        "--poll-interval=0": "poll_interval_s must be positive",
        "--poll-interval=-1": "poll_interval_s must be positive",
        "--max-seconds=-1": "--max-seconds must be finite and >= 0, got -1.0",
    }

    @pytest.mark.parametrize("flag", BAD_SERVE_VALUES)
    def test_campaign_serve_rejects_bad_values_before_starting_anything(
        self, flag, tmp_path, capsys
    ):
        import threading

        spec = self._write_spec(tmp_path)
        store = tmp_path / "results.jsonl"
        before = set(threading.enumerate())
        assert main(["campaign", "serve", str(spec), "--store", str(store),
                     "--port=0", flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # never got as far as "serving campaign ..."
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert [line.split("error: ", 1)[1] for line in errors] == [
            self.BAD_SERVE_VALUES[flag]]
        assert set(threading.enumerate()) == before  # no follower, no server

    def test_campaign_report_without_records(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path)
        assert main(["campaign", "report", str(spec),
                     "--store", str(tmp_path / "empty.jsonl")]) == 0
        assert "no completed records" in capsys.readouterr().out

    def test_campaign_without_subcommand_shows_help(self, capsys):
        assert main(["campaign"]) == 1
        assert "usage" in capsys.readouterr().out.lower()


class TestWorkloadCli:
    def test_list_prints_every_workload(self, capsys):
        from repro.workloads import workload_names

        assert main(["workload", "list"]) == 0
        output = capsys.readouterr().out
        for name in workload_names():
            assert name in output

    def test_list_names_is_plain(self, capsys):
        from repro.workloads import workload_names

        assert main(["workload", "list", "--names"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == workload_names()

    def test_describe_shows_composition(self, capsys):
        assert main(["workload", "describe", "bursty-mmpp"]) == 0
        output = capsys.readouterr().out
        assert "mmpp" in output and "arrivals" in output

    def test_preview_prints_summary_table(self, capsys):
        assert main(["workload", "preview", "flood-churn", "--packets", "200"]) == 0
        output = capsys.readouterr().out
        assert "mean_rate_gbps" in output and "small_packet_fraction" in output

    def test_preview_json_is_seed_reproducible(self, capsys):
        argv = ["workload", "preview", "incast-sync", "--packets", "300",
                "--seed", "5", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["seed"] == 5
        assert first["summary"]["packets"] == 300

    def test_describe_closed_loop_names_the_transport(self, capsys):
        assert main(["workload", "describe", "incast-collapse"]) == 0
        output = capsys.readouterr().out
        assert "NewReno" in output and "synchronized barrier" in output
        assert "segments_per_transfer  24" in output

    def test_preview_rate_rescales(self, capsys):
        assert main(["workload", "preview", "enterprise-poisson", "--packets",
                     "2000", "--rate", "16", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["summary"]["mean_rate_gbps"] - 16.0) / 16.0 < 0.2

    def test_preview_unknown_workload_errors(self, capsys):
        assert main(["workload", "preview", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_preview_rejects_nonpositive_rate_and_packets(self, capsys):
        assert main(["workload", "preview", "enterprise-poisson", "--rate", "0"]) == 2
        assert "--rate" in capsys.readouterr().err
        assert main(["workload", "preview", "enterprise-poisson", "--rate", "-5"]) == 2
        capsys.readouterr()
        assert main(["workload", "preview", "enterprise-poisson", "--packets", "0"]) == 2
        assert "--packets" in capsys.readouterr().err

    @pytest.mark.parametrize("name, rate", [
        ("enterprise-poisson", "inf"),
        ("enterprise-poisson", "nan"),
        ("pcap-replay", "inf"),
        ("incast-collapse", "nan"),
    ])
    def test_preview_rejects_a_non_finite_rate_by_its_flag(self, capsys, name, rate):
        assert main(["workload", "preview", name, "--rate", rate]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert "--rate must be finite" in captured.err

    def test_preview_at_a_tiny_rate_summarizes_without_overflow(self, capsys):
        assert main(["workload", "preview", "enterprise-poisson", "--rate", "1e-300",
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert summary["packets"] == 2000
        assert math.isfinite(summary["burstiness_cv"]) and summary["burstiness_cv"] > 0

    def test_preview_custom_pcap(self, tmp_path, capsys):
        from repro.packet.pcap import write_pcap
        from repro.workloads import synthetic_enterprise_capture

        records = synthetic_enterprise_capture(32, seed=9)
        path = tmp_path / "cap.pcap"
        write_pcap(path, [(r.timestamp, r.data) for r in records])
        assert main(["workload", "preview", "pcap-replay", "--pcap", str(path),
                     "--packets", "32", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["packets"] == 32
        # --pcap is rejected for generative workloads.
        assert main(["workload", "preview", "flood-churn", "--pcap", str(path)]) == 2

    def test_workload_without_subcommand_shows_help(self, capsys):
        assert main(["workload"]) == 1
        assert "usage" in capsys.readouterr().out.lower()


class TestFaultsCli:
    def test_list_prints_every_profile(self, capsys):
        from repro.faults import fault_profile_names

        assert main(["faults", "list"]) == 0
        output = capsys.readouterr().out
        for name in fault_profile_names():
            assert name in output

    def test_list_names_is_plain(self, capsys):
        from repro.faults import fault_profile_names

        assert main(["faults", "list", "--names"]) == 0
        assert capsys.readouterr().out.strip().splitlines() == fault_profile_names()

    def test_describe_shows_events(self, capsys):
        assert main(["faults", "describe", "link-flap"]) == 0
        output = capsys.readouterr().out
        assert "link_down" in output and "description" in output

    def test_preview_prints_timeline(self, capsys):
        assert main(["faults", "preview", "chaos-mix", "--horizon-us", "6000"]) == 0
        output = capsys.readouterr().out
        assert "at_us" in output and "backend_churn" in output

    def test_preview_json_is_seed_reproducible(self, capsys):
        argv = ["faults", "preview", "lossy-links", "--horizon-us", "6000",
                "--seed", "3", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second
        assert first["events"], "preview materialized no events"
        assert all(event["kind"] == "link_loss" for event in first["events"])

    def test_preview_unknown_profile_errors(self, capsys):
        assert main(["faults", "preview", "nope"]) == 2
        assert "unknown fault profile" in capsys.readouterr().err

    def test_preview_rejects_nonpositive_horizon(self, capsys):
        assert main(["faults", "preview", "link-flap", "--horizon-us", "0"]) == 2
        assert "--horizon-us" in capsys.readouterr().err

    def test_run_rejects_unknown_fault_profile(self, capsys):
        assert main(["run", "table1", "--faults", "nope"]) == 2
        assert "unknown fault profile" in capsys.readouterr().err

    def test_faults_without_subcommand_shows_help(self, capsys):
        assert main(["faults"]) == 1
        assert "usage" in capsys.readouterr().out.lower()


def _exit_code(argv):
    """``main(argv)``'s exit code, argparse's usage errors included."""
    try:
        return main(argv)
    except SystemExit as exited:
        return exited.code


class TestNonFiniteDurations:
    """A duration or interval flag that is ``inf`` / ``nan`` fails at its
    declaration: exit 2, one ``error:`` line, no traceback, no file."""

    CASES = {
        "faults-horizon-inf": (
            ["faults", "preview", "link-flap", "--horizon-us", "inf"],
            "--horizon-us must be finite, got inf",
        ),
        "faults-horizon-nan": (
            ["faults", "preview", "link-flap", "--horizon-us", "nan"],
            "--horizon-us must be finite, got nan",
        ),
        "observe-interval-inf": (
            ["observe", "metrics", "--interval-us", "inf", "--out", "{tmp}/metrics.json"],
            "sample_interval_us must be finite, got inf",
        ),
        "observe-interval-nan": (
            ["observe", "metrics", "--interval-us", "nan", "--out", "{tmp}/metrics.json"],
            "sample_interval_us must be finite, got nan",
        ),
        "serve-poll-inf": (
            ["campaign", "serve", "{spec}", "--store", "{tmp}/results.jsonl",
             "--port=0", "--poll-interval", "inf", "--max-seconds", "0"],
            "poll_interval_s must be finite, got inf",
        ),
        "serve-poll-nan": (
            ["campaign", "serve", "{spec}", "--store", "{tmp}/results.jsonl",
             "--port=0", "--poll-interval", "nan", "--max-seconds", "0"],
            "poll_interval_s must be finite, got nan",
        ),
        "serve-max-seconds-inf": (
            ["campaign", "serve", "{spec}", "--store", "{tmp}/results.jsonl",
             "--port=0", "--max-seconds", "inf"],
            "--max-seconds must be finite and >= 0, got inf",
        ),
        "serve-max-seconds-nan": (
            ["campaign", "serve", "{spec}", "--store", "{tmp}/results.jsonl",
             "--port=0", "--max-seconds", "nan"],
            "--max-seconds must be finite and >= 0, got nan",
        ),
        "run-cell-timeout-nan": (
            ["campaign", "run", "{spec}", "--store", "{tmp}/results.jsonl",
             "--workers=2", "--cell-timeout", "nan"],
            "cell_timeout_s must be finite, got nan",
        ),
        "run-retry-backoff-nan": (
            ["campaign", "run", "{spec}", "--store", "{tmp}/results.jsonl",
             "--workers=2", "--retry-backoff", "nan"],
            "retry_backoff_s must be finite, got nan",
        ),
        "faults-horizon--inf": (
            ["faults", "preview", "link-flap", "--horizon-us=-inf"],
            "--horizon-us must be finite, got -inf",
        ),
        "run-cell-timeout-inf": (
            ["campaign", "run", "{spec}", "--store", "{tmp}/results.jsonl",
             "--workers=2", "--cell-timeout", "inf"],
            "cell_timeout_s must be finite, got inf",
        ),
        "run-retry-backoff-inf": (
            ["campaign", "run", "{spec}", "--store", "{tmp}/results.jsonl",
             "--workers=2", "--retry-backoff", "inf"],
            "retry_backoff_s must be finite, got inf",
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_rejected_with_one_error_line_and_nothing_on_disk(self, case, tmp_path, capsys):
        import threading

        argv, message = self.CASES[case]
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps({
            "name": "cli-grid", "scenario": "fw_nat_lb_10ge",
            "grid": {"send_rate_gbps": [4.0]}, "time_scale": 0.05,
        }))
        before = set(threading.enumerate())
        argv = [arg.format(tmp=tmp_path, spec=spec) for arg in argv]
        assert _exit_code(argv) == 2
        assert _one_error(capsys) == message
        assert list(tmp_path.iterdir()) == [spec]
        assert set(threading.enumerate()) == before


class TestRemovedFidelityTier:
    """Every input that names the deleted fluid tier is refused by name
    before anything runs or is written."""

    @pytest.mark.parametrize("argv, key", [
        (["run", "fig07", "--fidelity", "auto"], "--fidelity"),
        (["bench", "--fidelity-check"], "--fidelity-check"),
        (["validate", "fuzz", "--relations", "fluid_vs_packet", "--scenarios", "1",
          "--corpus", "{tmp}/corpus"], "fluid_vs_packet"),
    ], ids=["run", "bench", "fuzz"])
    def test_a_flag_or_relation(self, argv, key, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert _exit_code([arg.format(tmp=tmp_path) for arg in argv]) == 2
        (line,) = _error_lines(capsys)
        assert key in line
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where", ["base", "grid", "options"])
    def test_a_campaign_key(self, where, tmp_path, capsys):
        campaign = {"name": "tiered", "scenario": "fw_nat_lb_10ge",
                    "grid": {"send_rate_gbps": [4.0]}, "time_scale": 0.05}
        campaign.setdefault(where, {})["fidelity"] = ["auto"] if where == "grid" else "auto"
        spec = tmp_path / "campaign.json"
        spec.write_text(json.dumps(campaign))
        store = tmp_path / "results.jsonl"
        assert main(["campaign", "run", str(spec), "--store", str(store), "--workers", "1"]) == 2
        assert "'fidelity'" in _one_error(capsys)
        assert list(tmp_path.iterdir()) == [spec]
