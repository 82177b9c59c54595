#!/usr/bin/env python3
"""Regenerate the committed golden-figure tables.

Runs every case from ``cases.py`` on the **slow (reference) simulation
path** — the reference semantics are the ground truth the fast path
must reproduce — and writes ``<name>.json`` next to this script.

Usage::

    PYTHONPATH=src python tests/golden/regenerate.py             # all cases
    PYTHONPATH=src python tests/golden/regenerate.py fig07 fig14 # a subset

Regenerate only when a deliberate behaviour change invalidates the
tables, and say so in the commit message; see README.md in this
directory for the workflow.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent


def _load_cases():
    spec = importlib.util.spec_from_file_location("golden_cases", GOLDEN_DIR / "cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GOLDEN_CASES


def main(argv=None) -> int:
    from repro.experiments.runner import run_options

    cases = _load_cases()
    names = (argv if argv is not None else sys.argv[1:]) or sorted(cases)
    unknown = [name for name in names if name not in cases]
    if unknown:
        print(f"unknown golden cases: {unknown}; known: {sorted(cases)}", file=sys.stderr)
        return 2
    for name in names:
        with run_options(reference=True):
            payload = cases[name]()
        path = GOLDEN_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
