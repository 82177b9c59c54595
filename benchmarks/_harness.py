"""Shared helpers for the benchmark suite.

Every benchmark regenerates one figure or table of the paper's
evaluation: it executes the corresponding experiment module once (the
simulation itself is the thing being timed), prints the resulting rows
in the shape of the paper's figure, and attaches them to
``benchmark.extra_info`` so they land in the JSON output of
``pytest-benchmark``.

Set ``REPRO_BENCH_TIME_SCALE`` (default ``0.5``) to trade fidelity for
speed: it scales every scenario's simulated duration.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, List, Optional, Sequence

from repro.experiments.figures import FIGURES
from repro.experiments.runner import ExperimentRunner
from repro.telemetry.report import render_table

#: Simulated-time scale used by all benchmarks (1.0 = the scenarios' full horizons).
BENCH_TIME_SCALE = float(os.environ.get("REPRO_BENCH_TIME_SCALE", "0.4"))


def bench_runner() -> ExperimentRunner:
    """An experiment runner configured for benchmark use."""
    return ExperimentRunner(time_scale=BENCH_TIME_SCALE)


def run_figure(
    benchmark,
    title: str,
    func: Callable[..., List[dict]],
    columns: Optional[Sequence[str]] = None,
    **kwargs,
):
    """Execute *func* once under pytest-benchmark and print its rows."""
    rows = benchmark.pedantic(lambda: func(**kwargs), rounds=1, iterations=1)
    if isinstance(rows, dict):
        printable = rows.get("rows", [rows])
    else:
        printable = rows
    table = render_table(printable, columns=list(columns) if columns else None)
    # Write the regenerated figure straight to the real stdout so it shows up
    # in the benchmark log even though pytest captures per-test output.
    sys.__stdout__.write(f"\n{title}\n{table}\n")
    sys.__stdout__.flush()
    benchmark.extra_info["title"] = title
    benchmark.extra_info["rows"] = printable
    return rows


def run_registered(benchmark, name: str, **kwargs):
    """:func:`run_figure` on the ``FIGURES`` entry *name*: its title, its ``run``."""
    figure = FIGURES[name]
    return run_figure(benchmark, figure.title, figure.run, **kwargs)
