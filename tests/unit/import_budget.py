"""A clock-free import budget: what the run stack's cold import loads.

The perf ledger's ``setup_s`` is mostly the cold import of the line
below (``COLD_IMPORT`` in ``benchmarks/perf/run.py``), and a timing
needs alternating pairs on a quiet host; a module count needs neither.
In one fresh interpreter this script imports that line, then runs one
short ``fig07_sat`` compare, and reports a breach when

* the import loads a module only a campaign, a closed-loop or replay
  workload or a PCAP file needs — ``multiprocessing*``, ``traceback``
  (which :mod:`logging` imports), :data:`WORKLOAD_ONLY` — or a figure
  module or :mod:`http.server`;
* the import loads more than :data:`MAX_REPRO_MODULES` ``repro.*``
  modules;
* the compare imports any further ``repro.*`` module: cost moved into
  the run is not cost removed.

It needs no pytest, so CI runs it on both interpreters::

    PYTHONPATH=src python tests/unit/import_budget.py

and ``test_cli.py`` runs it in a fresh process.  It prints the counts,
then one line per breach, and exits 1 on any.  A change that lowers the
count should lower the ceiling in the same commit.
"""

import sys

COLD_IMPORT = (
    "import repro.experiments.runner, repro.experiments.scenarios, "
    "repro.orchestrator.executor, repro.orchestrator.store, repro.workloads.registry"
)

#: ``repro.*`` modules the cold import loads: measured 75 on CPython
#: 3.11.7 and 3.9.18 (84 while every package ``__init__`` imported all
#: of its re-exports).
MAX_REPRO_MODULES = 75

#: Implementation modules a ``fig07_sat`` run never calls into.
WORKLOAD_ONLY = (
    "repro.workloads.transport",
    "repro.workloads.replay",
    "repro.workloads.flowmodels",
    "repro.workloads.generative",
    "repro.packet.pcap",
)


def _out_of_budget(name):
    return (
        name.startswith(("multiprocessing", "_multiprocessing"))
        or name in ("traceback", "http.server", *WORKLOAD_ONLY)
        or name.startswith("repro.experiments.fig")
    )


def main():
    exec(COLD_IMPORT)
    cold = set(sys.modules)
    repro_cold = sorted(name for name in cold if name.startswith("repro"))

    from dataclasses import replace

    from repro.experiments import scenarios
    from repro.experiments.runner import ExperimentRunner

    scenario = replace(scenarios.fw_nat_lb_10ge(10.5), seed=91)
    ExperimentRunner(time_scale=0.02).compare(scenario)
    imported_by_run = sorted(
        name for name in set(sys.modules) - cold if name.startswith("repro")
    )

    print(
        f"cold import: {len(repro_cold)} repro.* modules (ceiling {MAX_REPRO_MODULES}), "
        f"{len(cold)} in all; a fig07_sat compare imported {len(imported_by_run)} more"
    )
    breaches = [f"out of budget: {name}" for name in sorted(cold) if _out_of_budget(name)]
    if len(repro_cold) > MAX_REPRO_MODULES:
        breaches.append(f"{len(repro_cold)} repro.* modules > {MAX_REPRO_MODULES}")
    breaches += [f"imported by the run: {name}" for name in imported_by_run]
    for line in breaches:
        print(line)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
