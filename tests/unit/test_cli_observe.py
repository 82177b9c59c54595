"""CLI tests for the observability surface and structured logging."""

import json
import logging

import pytest

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
