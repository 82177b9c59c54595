"""The fuzz corpus: shrunk repros persisted as replayable JSON.

Every failure the fuzzer finds is written here as one self-contained
JSON file: the shrunk scenario descriptor (registry scenario name +
parameters — the same plain-data form campaigns use), the original
descriptor it was shrunk from, and the violations observed.  The corpus
is a regression suite that grows itself: ``repro validate replay`` (and
``tests/validation/test_corpus_replay.py``) re-executes every entry, so
a bug the fuzzer ever caught can never silently return.

Triage workflow for a new entry: see the README this module writes into
fresh corpus directories, or the "Validation" section of the top-level
README.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.orchestrator.spec import RunSpec
from repro.validation.invariants import Violation
from repro.validation.metamorphic import RELATION_REGISTRY, build_relations

#: Violation check name -> registry key, for every registered relation
#: (replay re-runs the relations an entry names; invariant checks always
#: run).
_RELATION_CHECKS = {factory.name: key for key, factory in RELATION_REGISTRY.items()}

#: Default corpus location, replayed by the pytest suite.
DEFAULT_CORPUS_DIR = Path(__file__).resolve().parents[3] / "tests" / "validation_corpus"

_CORPUS_README = """\
# Fuzz corpus

Each `repro-*.json` file is a shrunk failing scenario found by
`repro validate fuzz`.  Replay them all with:

    PYTHONPATH=src python -m repro validate replay --corpus <this dir>

To triage one entry: `repro validate run <file>` re-executes just that
descriptor and prints the violations; the `original` block shows the
pre-shrink scenario it came from.  Once the underlying bug is fixed the
entry replays clean — keep it committed so the regression stays covered.
"""


def entry_from_failure(failure, seed: Optional[int] = None) -> Dict[str, Any]:
    """Serialize one :class:`~repro.validation.fuzzer.FuzzFailure`."""
    return {
        "format": "repro-validation-corpus-v1",
        "fuzz_seed": seed,
        "scenario": failure.shrunk.scenario,
        "mode": failure.shrunk.mode,
        "params": dict(failure.shrunk.params),
        "time_scale": failure.shrunk.time_scale,
        "relations": sorted({v.check for v in failure.violations
                             if v.check in _RELATION_CHECKS}),
        "shrunk_size": failure.shrunk_size,
        "original": {
            "scenario": failure.original.scenario,
            "params": dict(failure.original.params),
            "size": failure.original_size,
        },
        "violations": [violation.as_dict() for violation in failure.violations],
    }


def write_entry(corpus_dir, failure, seed: Optional[int] = None) -> Path:
    """Write one failure into *corpus_dir*; returns the file path."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    readme = corpus_dir / "README.md"
    if not readme.exists():
        readme.write_text(_CORPUS_README, encoding="utf-8")
    entry = entry_from_failure(failure, seed=seed)
    path = corpus_dir / f"repro-{failure.shrunk.spec_hash}.json"
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_entry(path) -> Dict[str, Any]:
    """Load and structurally validate one corpus entry."""
    path = Path(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "scenario" not in data or "params" not in data:
        raise ValueError(f"{path} is not a corpus entry (missing scenario/params)")
    return data


def validate_entry_names(entry: Dict[str, Any], source: Any = "corpus entry") -> None:
    """Check every registry name an entry references still resolves.

    Registries evolve: a scenario, workload or fault profile a repro was
    recorded against may have been renamed or removed since.  Replaying
    such an entry used to surface as a bare lookup failure deep inside
    scenario materialization; this check turns it into one actionable
    message naming the stale reference and the file carrying it, so the
    fix (re-record or delete the entry) is obvious.
    """
    from repro.orchestrator.spec import SCENARIO_REGISTRY

    def _stale(kind: str, name: str, known) -> ValueError:
        return ValueError(
            f"{source}: references {kind} {name!r}, which is no longer "
            f"registered (known: {sorted(known)}); the corpus entry is stale — "
            "re-record it against the current registries or delete it"
        )

    scenario = entry.get("scenario")
    if scenario not in SCENARIO_REGISTRY:
        raise _stale("scenario", scenario, SCENARIO_REGISTRY)
    params = entry.get("params", {})
    workload = params.get("workload")
    if workload is not None:
        from repro.workloads.registry import WORKLOAD_REGISTRY

        if workload not in WORKLOAD_REGISTRY:
            raise _stale("workload", workload, WORKLOAD_REGISTRY)
    faults = params.get("faults")
    if isinstance(faults, str):
        from repro.faults.registry import FAULT_REGISTRY

        if faults not in FAULT_REGISTRY:
            raise _stale("fault profile", faults, FAULT_REGISTRY)


def corpus_entries(corpus_dir=None) -> List[Path]:
    """Corpus entry files under *corpus_dir* (default: the committed corpus).

    A directory the caller named must exist — a misspelt ``--corpus``
    would otherwise replay nothing and pass; the default may be absent.
    """
    if corpus_dir is None:
        corpus_dir = DEFAULT_CORPUS_DIR
    elif not Path(corpus_dir).is_dir():
        raise ValueError(f"corpus {corpus_dir} is not a directory")
    return sorted(Path(corpus_dir).glob("repro-*.json"))


def run_spec_from_entry(entry: Dict[str, Any]) -> RunSpec:
    """Rebuild the executable descriptor from a corpus entry (or descriptor file)."""
    return RunSpec(
        scenario=entry["scenario"],
        mode=entry.get("mode", "compare"),
        params=dict(entry["params"]),
        time_scale=float(entry.get("time_scale", 1.0)),
    )


def entry_relation_names(entry: Dict[str, Any]) -> List[str]:
    """Registry names of the relations an entry's violations came from.

    Falls back to the default differential relation so invariant-only
    entries (and hand-written descriptor files) still get the
    fast-vs-slow check on replay.
    """
    names = [
        _RELATION_CHECKS[name]
        for name in entry.get("relations", [])
        if name in _RELATION_CHECKS
    ]
    return names or ["fast_slow"]


def replay_entry(entry: Dict[str, Any], source: Any = "corpus entry") -> List[Violation]:
    """Re-execute one corpus entry; returns the violations it produces now.

    Raises ``ValueError`` with an actionable message when the entry
    references a scenario/workload/fault-profile name that is no longer
    registered (see :func:`validate_entry_names`).
    """
    from repro.validation.fuzzer import check_run

    validate_entry_names(entry, source=source)
    return check_run(
        run_spec_from_entry(entry), build_relations(entry_relation_names(entry))
    )


def replay_corpus(corpus_dir=None) -> Dict[str, Any]:
    """Replay every corpus entry; summarize which (if any) still fail."""
    results: List[Dict[str, Any]] = []
    failing = 0
    for path in corpus_entries(corpus_dir):
        violations = replay_entry(load_entry(path), source=path)
        if violations:
            failing += 1
        results.append(
            {
                "path": str(path),
                "ok": not violations,
                "violations": [violation.as_dict() for violation in violations],
            }
        )
    return {"entries": len(results), "failing": failing, "results": results}
