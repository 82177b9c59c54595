"""Golden-figure regression suite.

Every figure/table experiment runs on a reduced grid (see
``tests/golden/cases.py``) in **both** simulation modes — the reference
slow path and the optimized fast path — and the resulting tables must
match the committed JSON under ``tests/golden/`` exactly, row for row.

This is the contract that lets the fast path exist at all: batched
events, pooled packets, port plans and memoized NF
verdicts are only admissible because this suite proves they reproduce
the reference results byte-for-byte.  A legitimate behaviour change
must regenerate the tables (``python tests/golden/regenerate.py``) and
say so in the commit; an accidental divergence fails here first.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.runner import run_options

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"


def _load_cases():
    spec = importlib.util.spec_from_file_location(
        "golden_cases", GOLDEN_DIR / "cases.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GOLDEN_CASES


GOLDEN_CASES = _load_cases()


def _normalize(payload):
    """Round-trip through JSON so tuples/ints compare like the stored file."""
    return json.loads(json.dumps(payload, sort_keys=True))


def _golden(name):
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing golden table {path}; run: PYTHONPATH=src python "
        f"tests/golden/regenerate.py {name}"
    )
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestGoldenTablesExist:
    def test_every_case_has_a_committed_table(self):
        missing = [
            name
            for name in GOLDEN_CASES
            if not (GOLDEN_DIR / f"{name}.json").exists()
        ]
        assert missing == []

    def test_no_orphan_tables(self):
        orphans = [
            path.name
            for path in GOLDEN_DIR.glob("*.json")
            if path.stem not in GOLDEN_CASES
        ]
        assert orphans == []

    def test_cases_cover_the_figure_registry(self):
        # `equivalence` is pinned byte for byte by its own integration test.
        assert set(GOLDEN_CASES) | {"equivalence"} == set(FIGURES)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
class TestGoldenFigures:
    """Exact row equality in both simulation modes."""

    def test_fast_path_matches_golden(self, name):
        with run_options(reference=False):
            payload = GOLDEN_CASES[name]()
        assert _normalize(payload) == _golden(name)

    def test_slow_path_matches_golden(self, name):
        with run_options(reference=True):
            payload = GOLDEN_CASES[name]()
        assert _normalize(payload) == _golden(name)
