"""Experiment harness: one module per figure/table of the paper's §6.

Every experiment builds on :class:`~repro.experiments.runner.ExperimentRunner`,
which assembles a simulated testbed (traffic generator ↔ switch ↔ NF
server(s)) for a scenario, runs it under both the PayloadPark and the
baseline deployments, and returns comparable reports.  Each module
exposes one ``run(...)`` that loops over the runner in process and
returns JSON-serializable rows; :mod:`repro.experiments.figures` is the
one table that names them all (``repro list`` / ``repro run``).

This package imports only the runner: importing the registry pulls in
all fourteen experiment modules, which campaign workers and the perf
ledger's cold-import measurement should not pay for.
"""

from repro.experiments.runner import (
    DeploymentKind,
    ExperimentResult,
    ExperimentRunner,
    ScenarioConfig,
)

__all__ = [
    "ExperimentRunner",
    "ExperimentResult",
    "ScenarioConfig",
    "DeploymentKind",
]
