"""Pytest bootstrap: make ``src/`` importable without an installed package.

The canonical workflow is ``pip install -e .``; this fallback lets the
test suite run from a plain checkout (e.g. in offline CI where editable
installs are awkward).
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_configure(config):
    """Register repo-local markers.

    ``validation`` marks the heavyweight validation-subsystem checks
    (the 50-scenario fuzz acceptance run, corpus replay, injected-bug
    shrinking).  The fast lane skips them: ``pytest -m "not validation"``.
    """
    config.addinivalue_line(
        "markers",
        "validation: heavyweight validation-subsystem checks "
        "(deselect with -m \"not validation\")",
    )
