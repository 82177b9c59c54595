"""The fuzz corpus: entry round-trips and committed-corpus replay."""

import json

import pytest

from repro.orchestrator.spec import RunSpec
from repro.validation.corpus import (
    DEFAULT_CORPUS_DIR,
    corpus_entries,
    entry_from_failure,
    entry_relation_names,
    load_entry,
    replay_corpus,
    replay_entry,
    run_spec_from_entry,
    validate_entry_names,
    write_entry,
)
from repro.validation.fuzzer import FuzzFailure
from repro.validation.invariants import Violation
from repro.validation.metamorphic import RELATION_REGISTRY, SeedDeterminism


def _failure(check="fast-slow-equivalence"):
    original = RunSpec(
        scenario="workload",
        params={"workload": "bursty-mmpp", "send_rate_gbps": 8.0,
                "duration_us": 800.0, "warmup_us": 200.0, "seed": 7},
    )
    shrunk = RunSpec(
        scenario="workload",
        params={"send_rate_gbps": 4.0, "duration_us": 400.0,
                "warmup_us": 100.0, "seed": 7},
    )
    violation = Violation(
        check=check,
        message="fast path diverges",
        scenario="workload-bursty-mmpp",
        deployment="both",
        details={"diffs": {"baseline_offered_gbps": {"left": 1, "right": 2}}},
    )
    return FuzzFailure(original=original, shrunk=shrunk, violations=[violation])


class TestCorpusEntries:
    def test_write_load_roundtrip(self, tmp_path):
        failure = _failure()
        path = write_entry(tmp_path, failure, seed=3)
        entry = load_entry(path)
        assert entry["scenario"] == "workload"
        assert entry["params"] == dict(failure.shrunk.params)
        assert entry["fuzz_seed"] == 3
        assert entry["original"]["params"] == dict(failure.original.params)
        assert entry["relations"] == ["fast-slow-equivalence"]
        run = run_spec_from_entry(entry)
        assert run.spec_hash == failure.shrunk.spec_hash

    def test_entry_relation_names_resolve_to_registry_names(self):
        entry = entry_from_failure(_failure(), seed=1)
        assert entry_relation_names(entry) == ["fast_slow"]
        entry["relations"] = ["seed-determinism", "time-scale-invariance"]
        assert entry_relation_names(entry) == ["determinism", "time_scale"]
        # Invariant-only entries fall back to the differential default.
        entry["relations"] = ["packet-conservation"]
        assert entry_relation_names(entry) == ["fast_slow"]

    @pytest.mark.parametrize("key", sorted(RELATION_REGISTRY))
    def test_every_registered_relation_round_trips(self, key):
        # A hand-kept second table of relation names once omitted a
        # relation: its failures were written with `relations: []` and
        # replayed clean under fast_slow alone.
        entry = entry_from_failure(_failure(RELATION_REGISTRY[key].name), seed=1)
        assert entry["relations"] == [RELATION_REGISTRY[key].name]
        assert entry_relation_names(entry) == [key]

    def test_a_non_default_relation_entry_replays_that_relation(self, monkeypatch):
        from repro.validation import fuzzer

        replayed = []
        monkeypatch.setattr(
            fuzzer, "check_run",
            lambda run, relations=(): replayed.extend(relations) or [],
        )
        entry = entry_from_failure(_failure("seed-determinism"), seed=1)
        assert replay_entry(entry) == []
        assert [type(relation) for relation in replayed] == [SeedDeterminism]

    def test_corpus_dir_gets_a_triage_readme(self, tmp_path):
        write_entry(tmp_path, _failure())
        assert (tmp_path / "README.md").exists()

    def test_load_entry_rejects_non_corpus_json(self, tmp_path):
        bad = tmp_path / "repro-bad.json"
        bad.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError):
            load_entry(bad)

    def test_entry_serialization_is_json_clean(self):
        payload = entry_from_failure(_failure(), seed=1)
        assert json.loads(json.dumps(payload)) == payload

    def test_only_the_default_corpus_dir_may_be_missing(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.validation import corpus

        # A misspelt --corpus used to replay 0 entries and exit 0.
        absent = tmp_path / "absent"
        with pytest.raises(ValueError, match="absent is not a directory"):
            corpus_entries(absent)
        assert main(["validate", "replay", "--corpus", str(absent)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1

        monkeypatch.setattr(corpus, "DEFAULT_CORPUS_DIR", absent)
        assert replay_corpus() == {"entries": 0, "failing": 0, "results": []}


class TestStaleCorpusEntries:
    """Registries evolve; replays of stale entries must fail actionably."""

    def _write(self, tmp_path, entry):
        path = tmp_path / "repro-stale.json"
        path.write_text(json.dumps(entry))
        return path

    def test_stale_workload_name_fails_with_a_clear_message(self, tmp_path):
        path = self._write(tmp_path, {
            "scenario": "workload",
            "params": {"workload": "enterprise-poission-typo", "seed": 1,
                       "duration_us": 400.0, "warmup_us": 100.0},
        })
        with pytest.raises(ValueError) as excinfo:
            replay_corpus(tmp_path)
        message = str(excinfo.value)
        assert "repro-stale.json" in message
        assert "enterprise-poission-typo" in message
        assert "no longer registered" in message
        assert "re-record" in message

    def test_stale_scenario_name_fails_with_a_clear_message(self, tmp_path):
        path = self._write(tmp_path, {
            "scenario": "workload_v1_renamed",
            "params": {"seed": 1},
        })
        with pytest.raises(ValueError, match="workload_v1_renamed"):
            replay_corpus(tmp_path)
        # The message is actionable, not a bare registry KeyError.
        with pytest.raises(ValueError, match="no longer registered"):
            validate_entry_names(load_entry(path), source=path)

    def test_stale_fault_profile_fails_with_a_clear_message(self, tmp_path):
        self._write(tmp_path, {
            "scenario": "workload",
            "params": {"workload": "enterprise-poisson", "seed": 1,
                       "faults": "retired-profile"},
        })
        with pytest.raises(ValueError, match="fault profile 'retired-profile'"):
            replay_corpus(tmp_path)

    def test_current_names_validate_clean(self):
        validate_entry_names({
            "scenario": "workload",
            "params": {"workload": "enterprise-poisson", "faults": "chaos-mix"},
        })


@pytest.mark.validation
class TestCommittedCorpus:
    def test_every_committed_repro_replays_clean(self):
        """Bugs the fuzzer ever found must stay fixed."""
        paths = corpus_entries(DEFAULT_CORPUS_DIR)
        if not paths:
            pytest.skip("no committed corpus entries yet")
        summary = replay_corpus(DEFAULT_CORPUS_DIR)
        assert summary["failing"] == 0, summary
