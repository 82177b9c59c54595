"""Cross-process determinism of the CLI experiment output.

The paper-reproduction claim requires that ``repro run <fig> --json``
is a pure function of (experiment, seed, time scale): two separate
processes must emit byte-identical JSON.  Running in fresh subprocesses
catches determinism bugs that in-process tests cannot (hash
randomization, import-order state, id()-keyed caches).  That the
reference engine agrees with this output is the golden suite's job.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

BASE_COMMAND = [
    sys.executable,
    "-m",
    "repro",
    "run",
    "fig07",
    "--json",
    "--seed",
    "42",
    "--time-scale",
    "0.05",
]


def _run_cli():
    result = subprocess.run(
        BASE_COMMAND,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONHASHSEED": "random"},
        capture_output=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_fig07_json_is_byte_identical_across_processes():
    first = _run_cli()
    second = _run_cli()
    assert first == second
    assert first.startswith(b"{")
