"""CLI tests for the observability surface and structured logging."""

import json
import logging

import pytest

from repro.bench import append_history, check_obs_overhead, write_bench_artifact
from repro.cli import LOG_LEVELS, configure_logging, main
from repro.obs.schema import (
    validate_chrome_trace,
    validate_metrics,
    validate_profile,
    validate_trace_jsonl,
)

#: A cheap single-comparison scenario for CLI-level observe runs.
OBSERVE_ARGS = [
    "--scenario", "workload",
    "-p", "workload=enterprise-poisson",
    "-p", "chain=fw_nat",
    "--time-scale", "0.05",
]


class TestLogging:
    def test_configure_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("loud")

    @pytest.mark.parametrize("level", LOG_LEVELS)
    def test_configure_sets_level_and_single_handler(self, level):
        configure_logging(level)
        configure_logging(level)  # idempotent: no handler accumulation
        root = logging.getLogger("repro")
        assert len(root.handlers) == 1
        assert root.level == getattr(logging, level.upper())

    def test_errors_are_logged_to_stderr(self, capsys):
        assert main(["workload", "preview", "no-such-workload"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err
        assert "ERROR" in err

    def test_verbose_flag_enables_debug(self, capsys):
        assert main(["-v", "list"]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_diagnostics_stay_off_stdout(self, capsys):
        main(["--log-level", "debug", "faults", "list", "--names"])
        out = capsys.readouterr().out
        assert "INFO" not in out and "DEBUG" not in out


class TestObserveCommands:
    def test_observe_profile_prints_stage_table(self, capsys):
        assert main(["observe", "profile", *OBSERVE_ARGS]) == 0
        out = capsys.readouterr().out
        assert "pipeline_walk" in out
        assert "total wall time" in out

    def test_observe_profile_json_validates(self, capsys):
        assert main(["observe", "profile", "--json", *OBSERVE_ARGS]) == 0
        validate_profile(json.loads(capsys.readouterr().out))

    def test_observe_metrics_stdout_validates(self, capsys):
        assert main(["observe", "metrics", *OBSERVE_ARGS]) == 0
        validate_metrics(json.loads(capsys.readouterr().out))

    def test_observe_trace_jsonl_stdout_validates(self, capsys):
        assert main(["observe", "trace", *OBSERVE_ARGS]) == 0
        validate_trace_jsonl(capsys.readouterr().out)

    def test_observe_trace_chrome_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        assert main(
            ["observe", "trace", "--format", "chrome", "--out", str(out_file),
             *OBSERVE_ARGS]
        ) == 0
        validate_chrome_trace(json.loads(out_file.read_text()))

    def test_observe_run_writes_all_artifacts(self, tmp_path, capsys):
        assert main(
            ["observe", "run", "--out", str(tmp_path / "obs"), "--json",
             *OBSERVE_ARGS]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["observations"]) == 1
        suffixes = sorted(name.split(".", 1)[1] for name in
                          (p.rsplit("/", 1)[-1] for p in payload["files"]))
        assert suffixes == [
            "metrics.json", "profile.json", "trace.chrome.json", "trace.jsonl"
        ]

    def test_observe_run_both_deployments(self, tmp_path, capsys):
        assert main(
            ["observe", "run", "--deployment", "both",
             "--out", str(tmp_path / "obs"), "--json", *OBSERVE_ARGS]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        deployments = [obs["deployment"] for obs in payload["observations"]]
        assert deployments == ["baseline", "payloadpark"]

    def test_observe_unknown_scenario_errors(self, capsys):
        assert main(["observe", "profile", "--scenario", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_observe_without_subcommand_shows_help(self, capsys):
        assert main(["observe"]) == 1
        assert "usage" in capsys.readouterr().out.lower()


class TestRunObserveFlags:
    def test_run_with_metrics_exports_observations(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["run", "fig13", "--json", "--time-scale", "0.05",
             "--metrics", "--profile", "--obs-dir", "exports"]
        ) == 0
        json.loads(capsys.readouterr().out)  # stdout payload is untouched
        exports = list((tmp_path / "exports").iterdir())
        assert any(p.name.endswith(".metrics.json") for p in exports)
        assert any(p.name.endswith(".profile.json") for p in exports)
        for path in exports:
            if path.name.endswith(".metrics.json"):
                validate_metrics(json.loads(path.read_text()))

    def test_run_without_flags_writes_nothing(self, tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "fig13", "--json", "--time-scale", "0.05"]) == 0
        assert not (tmp_path / "observations").exists()


class TestBenchArtifacts:
    FAKE_OBS = {
        "scenario": "fig07", "rate_gbps": 10.5, "time_scale": 0.25, "repeat": 1,
        "off": {"wall_s": 1.0, "packets": 100, "packets_per_sec": 100.0},
        "disabled": {"wall_s": 1.0, "packets": 100, "packets_per_sec": 99.5},
        "enabled": {"wall_s": 2.0, "packets": 100, "packets_per_sec": 50.0},
        "disabled_over_off": 0.995, "enabled_over_off": 0.5,
    }

    def test_check_obs_overhead_gate(self):
        ok, message = check_obs_overhead(self.FAKE_OBS)
        assert ok and "ok" in message
        bad = dict(self.FAKE_OBS, disabled_over_off=0.9)
        ok, message = check_obs_overhead(bad)
        assert not ok and "REGRESSION" in message

    def test_write_artifact_and_history(self, tmp_path):
        artifact = tmp_path / "obs_overhead.json"
        history = tmp_path / "history.jsonl"
        written = write_bench_artifact(
            self.FAKE_OBS, kind="obs_overhead",
            artifact_path=artifact, history_path=history,
        )
        assert written == artifact
        payload = json.loads(artifact.read_text())
        assert payload["kind"] == "obs_overhead"
        assert payload["disabled_over_off"] == 0.995
        assert "measured_at" in payload
        write_bench_artifact(
            self.FAKE_OBS, kind="obs_overhead",
            artifact_path=artifact, history_path=history,
        )
        lines = history.read_text().splitlines()
        assert len(lines) == 2  # history appends, artifact overwrites
        assert json.loads(lines[0])["kind"] == "obs_overhead"

    def test_append_history_alone(self, tmp_path):
        history = tmp_path / "history.jsonl"
        append_history({"speedup": 1.5}, kind="fastpath", history_path=history)
        entry = json.loads(history.read_text())
        assert entry["kind"] == "fastpath" and entry["speedup"] == 1.5

    def test_artifact_requires_path_for_other_kinds(self, tmp_path):
        with pytest.raises(ValueError, match="no default artifact path"):
            write_bench_artifact({"speedup": 1.0}, kind="fastpath")


class TestBenchRunsOnlyWhatWasAsked:
    def test_no_gate_flag_measures_the_default_engine_once_per_repeat(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import bench
        from repro.orchestrator.ledger import RunLedger

        history = tmp_path / "history.jsonl"
        monkeypatch.setattr(bench, "default_history_path", lambda: history)
        measured = []
        real_measure = bench._measure

        def counting(*args, **kwargs):
            measured.append(kwargs)
            return real_measure(*args, **kwargs)

        monkeypatch.setattr(bench, "_measure", counting)
        assert main(["bench", "--time-scale", "0.05", "--repeat", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert measured == [{}, {}]
        assert set(payload) == {"scenario", "rate_gbps", "time_scale", "fast"}
        (row,) = [json.loads(line) for line in history.read_text().splitlines()]
        assert row["kind"] == "fastpath"
        # The row `bench trend` reads by default.
        assert RunLedger(history_path=history).bench_series() == [
            payload["fast"]["packets_per_sec"]
        ]

    def test_a_gate_flag_runs_that_gate_alone(self, monkeypatch, capsys):
        from repro import bench

        def unexpected(*args, **kwargs):
            raise AssertionError("a measurement nobody asked for")

        for name in ("run_bench", "run_bus_overhead", "run_fidelity_bench", "_measure"):
            monkeypatch.setattr(bench, name, unexpected)
        monkeypatch.setattr(
            bench, "run_obs_overhead", lambda **kwargs: TestBenchArtifacts.FAKE_OBS
        )
        assert main(["bench", "--quick", "--obs-check", "--no-artifact", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "obs_overhead": TestBenchArtifacts.FAKE_OBS
        }
