"""The package's one stderr log handler, for the CLI and campaign workers.

Every repro logger hangs off the ``repro`` root name; one handler on it
lets library code log structured diagnostics without polluting stdout
(which carries the machine-readable results).
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

LOG_LEVELS = ("debug", "info", "warning", "error")


def configure_logging(
    level_name: str = "info",
    tag: str = "",
    log_filter: Optional[logging.Filter] = None,
) -> None:
    """Install the package-wide stderr log handler at *level_name*.

    Replaces any previous handler on the ``repro`` logger (rather than
    appending), so repeated CLI invocations in one process — the test
    suite, notebooks — neither duplicate output nor keep writing to a
    stale stream.  *tag* is a format fragment placed after the logger
    name and *log_filter* supplies its fields — the campaign workers'
    cell stamp.
    """
    if level_name not in LOG_LEVELS:
        raise ValueError(
            f"unknown log level {level_name!r}; expected one of {LOG_LEVELS}"
        )
    root = logging.getLogger("repro")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        logging.Formatter(f"%(levelname)s %(name)s{tag}: %(message)s")
    )
    if log_filter is not None:
        handler.addFilter(log_filter)
    root.handlers[:] = [handler]
    root.setLevel(getattr(logging, level_name.upper()))
    root.propagate = False
