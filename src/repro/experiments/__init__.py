"""Experiment harness: the figures and tables of the paper's §6.

Every experiment builds on :class:`~repro.experiments.runner.ExperimentRunner`,
which assembles a simulated testbed (traffic generator ↔ switch ↔ NF
server(s)) for a scenario, runs it under both the PayloadPark and the
baseline deployments, and returns comparable reports.
:mod:`repro.experiments.figures` is the one table that names them all
(``repro list`` / ``repro run``): Fig. 7, 8, 9, 15 and 16 compare one
scenario over a grid and are a ``Sweep`` declared in their row, Fig. 10
and 11 are two column sets of :mod:`~repro.experiments.multi_server`, and
the irregular ones (Fig. 6, 12, 13, 14, Table 1, equivalence, chaos)
keep a module whose ``run(...)`` loops over the runner in process.
Every ``run`` returns JSON-serializable rows.

This package re-exports only the runner: importing the registry pulls in
every experiment module, which campaign workers and the perf ledger's
cold-import measurement should not pay for.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.runner": (
            "ExperimentRunner",
            "ExperimentResult",
            "ScenarioConfig",
            "DeploymentKind",
        ),
    },
)
