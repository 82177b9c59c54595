"""Campaign orchestrator: declarative sweeps, parallel execution, resumable results.

The subsystem has seven layers:

- :mod:`repro.orchestrator.spec` — scenario registry, campaign grids and
  hashable run descriptors;
- :mod:`repro.orchestrator.executor` — parallel fan-out with a serial
  fallback;
- :mod:`repro.orchestrator.dispatcher` — the fault-tolerant work queue
  behind the executor: cell leases, per-cell timeouts, bounded retry
  with backoff, worker-crash recovery;
- :mod:`repro.orchestrator.store` — append-only JSONL records keyed by
  spec hash (optionally sharded by hash), and the campaign's whole read
  side: the cell-status vocabulary, the one rule for which record
  speaks for a cell, the one tail reader, the incremental index behind
  resume / ``status`` / ``report`` / ``repro obs runs``;
- :mod:`repro.orchestrator.aggregate` — that index laid over a
  campaign's grid as table rows;
- :mod:`repro.orchestrator.telemetrybus` — structured worker events over
  a multiprocessing queue into live campaign state, under the same rule;
- :mod:`repro.orchestrator.serve` — ``repro campaign serve`` HTTP
  endpoints (status/cells/violations/events/metrics), live or post-hoc;
  not re-exported here, so only that command imports :mod:`http.server`.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.orchestrator.dispatcher": ("DispatchLoop",),
        "repro.orchestrator.executor": (
            "CampaignExecutor",
            "CampaignSummary",
            "execute_run",
            "flatten_comparison",
            "flatten_report",
        ),
        "repro.orchestrator.spec": (
            "SCENARIO_REGISTRY",
            "CampaignSpec",
            "RunSpec",
            "build_scenario",
            "derived_seed",
        ),
        "repro.orchestrator.store": ("ResultStore", "default_store_path", "events_path_for"),
        "repro.orchestrator.telemetrybus": (
            "CampaignMonitor",
            "TelemetryBus",
            "events_from_record",
        ),
    },
)
