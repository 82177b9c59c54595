"""Parallel campaign execution over a fault-tolerant dispatch loop.

Each run owns a private :class:`~repro.netsim.eventloop.EventLoop`, so
grid points are embarrassingly parallel: the executor fans pending
:class:`~repro.orchestrator.spec.RunSpec` descriptors out to worker
processes via :class:`~repro.orchestrator.dispatcher.DispatchLoop` —
per-cell leases with optional timeouts, bounded retry with exponential
backoff, and crash recovery, so one wedged or OOM-killed worker can
delay a campaign but never stall it — and streams completed records
back into the result store as they arrive.  ``workers=1`` (or a single
pending run) falls back to plain in-process execution — the debugging
path.  The figure experiments do not come through here: they loop over
:meth:`~repro.experiments.runner.ExperimentRunner.compare` themselves,
so their errors stay typed exceptions instead of record strings.

Retry budgets span resumes: failed attempts recorded in the store
(``error``/``violation`` records) count against ``max_attempts``, and a
cell whose budget is spent is stamped with a terminal
``status: "exhausted"`` record instead of being silently re-run on
every resume forever.

Run descriptors carry only plain data; workers rebuild the scenario
(chains, workload, topology) from the registry on their side of the
process boundary.

The baseline deployment never reads the PayloadPark knobs, so compare
cells that differ only in them (equal
:attr:`~repro.orchestrator.spec.RunSpec.baseline_hash`) pair against
one baseline run per process: the serial path simulates each baseline
once, and the dispatcher leases a worker the cells whose baseline it
already holds.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import require_positive_finite
from repro.experiments.runner import DeploymentKind, ExperimentRunner
from repro.orchestrator.spec import CampaignSpec, RunSpec, build_scenario, dedupe_specs
from repro.orchestrator.store import ResultStore
from repro.orchestrator import telemetrybus
from repro.orchestrator.telemetrybus import (
    DEFAULT_HEARTBEAT_INTERVAL_S,
    TelemetryBus,
    cell_context,
    start_heartbeat,
    worker_emit,
)
from repro.telemetry.report import ComparisonReport, DeploymentReport

#: Callback invoked with each finished record (progress reporting).
ProgressCallback = Callable[[Dict[str, Any]], None]

#: Default per-cell retry budget (attempts, not retries): a cell may
#: fail twice and be tried a third time before it is ``exhausted``.
DEFAULT_MAX_ATTEMPTS = 3

#: Default base of the exponential in-run retry backoff, in seconds.
DEFAULT_RETRY_BACKOFF_S = 0.5


def _campaign_worker_init(
    bus_queue: Optional[Any],
    log_level: Optional[str],
    heartbeat_interval_s: float,
) -> None:
    """Pool initializer: arm telemetry and logging in a fresh worker.

    Runs once per worker process.  The bus queue arrives through
    initargs (a ``multiprocessing.Queue`` is inheritable but not
    imap-picklable), and the CLI's ``--log-level`` follows the campaign
    into the pool so worker records are not silently stuck at the
    default config — tagged with the running cell's hash.
    """
    if log_level is not None:
        telemetrybus.configure_worker_logging(log_level)
    if bus_queue is not None:
        telemetrybus.install_worker_sink(bus_queue.put, heartbeat_interval_s)


def flatten_report(report: DeploymentReport, prefix: str = "") -> Dict[str, Any]:
    """Flatten one deployment report into scalar ``prefix``-ed metrics."""
    metrics: Dict[str, Any] = {}
    for spec_field in dataclasses.fields(report):
        value = getattr(report, spec_field.name)
        if spec_field.name == "drop_breakdown":
            for key, count in value.items():
                metrics[f"{prefix}drop_{key}"] = count
        elif isinstance(value, (bool, int, float, str)):
            metrics[f"{prefix}{spec_field.name}"] = value
    metrics[f"{prefix}drop_rate"] = report.drop_rate
    metrics[f"{prefix}healthy"] = report.healthy
    return metrics


def flatten_comparison(comparison: ComparisonReport) -> Dict[str, Any]:
    """Flatten a baseline-vs-PayloadPark comparison into one metrics dict."""
    metrics = flatten_report(comparison.baseline, "baseline_")
    metrics.update(flatten_report(comparison.payloadpark, "payloadpark_"))
    metrics["goodput_gain_percent"] = comparison.goodput_gain_percent
    metrics["delivered_goodput_gain_percent"] = comparison.delivered_goodput_gain_percent
    metrics["pcie_savings_percent"] = comparison.pcie_savings_percent
    metrics["latency_delta_us"] = comparison.latency_delta_us
    return metrics


#: The baselines one campaign execution simulated (the serial path's, or
#: one dispatcher worker's): ``baseline_hash`` → (report, the violations
#: its validated run raised).
BaselineTable = Dict[str, Tuple[DeploymentReport, List[Any]]]


def _compare(
    runner: ExperimentRunner,
    scenario,
    run: RunSpec,
    observer,
    record: Dict[str, Any],
    baselines: Optional[BaselineTable],
) -> ComparisonReport:
    """The cell's comparison, on a baseline from *baselines* if it holds one."""
    key = run.baseline_hash
    table = baselines if run.shares_baseline else None
    entry = table.get(key) if table is not None else None
    record["baseline_hash"] = key
    record["baseline_simulated"] = entry is None
    if entry is None:
        baseline = runner.run_deployment(scenario, DeploymentKind.BASELINE)
        violations = list(observer.violations) if observer is not None else []
        if table is not None:
            table[key] = (baseline, violations)
    else:
        baseline, violations = entry
        if observer is not None:
            # The observer reads as if the baseline had run under it.
            observer.violations.extend(violations)
            observer.runs_checked += 1
    return runner.compare_against(scenario, baseline).comparison


def execute_run(
    run: RunSpec, baselines: Optional[BaselineTable] = None
) -> Dict[str, Any]:
    """Execute one run descriptor and return its result record.

    Top-level so it pickles into pool workers.  Failures are captured in
    the record (``status: "error"``) instead of tearing down the pool;
    failed hashes are retried on the next resume.  Given its campaign
    execution's *baselines*, a compare cell reuses the baseline of an
    earlier cell with its ``baseline_hash`` and adds its own; the record
    says which (``baseline_simulated``).
    """
    started = time.perf_counter()
    record: Dict[str, Any] = {
        "spec_hash": run.spec_hash,
        "scenario": run.scenario,
        "mode": run.mode,
        "params": dict(run.params),
        "options": dict(run.options),
        "time_scale": run.time_scale,
        "status": "ok",
    }
    observer = None
    obs_sink = None
    obs_out_dir: Optional[Path] = None
    worker_emit(
        {
            "type": "cell_started",
            "spec_hash": run.spec_hash,
            "scenario": run.scenario,
            "params": dict(run.params),
            "pid": os.getpid(),
        }
    )
    heartbeat = start_heartbeat(run.spec_hash)
    try:
        with cell_context(run.spec_hash):
            scenario = build_scenario(run)
            record["seed"] = scenario.seed
            runner = ExperimentRunner(time_scale=run.time_scale)
            stack = ExitStack()
            if run.options.get("validate"):
                # Inline invariant checking (the campaign `validate: true`
                # hook): every deployment run of this grid point executes
                # under the validation observer.  Imported lazily — the
                # validation package layers on top of the orchestrator.
                from repro.experiments.runner import run_observer
                from repro.validation.engine import ValidationObserver

                observer = ValidationObserver()
                stack.enter_context(run_observer(observer))
            observe_opt = run.options.get("observe")
            if observe_opt:
                # Campaign `observe:` hook: every deployment run of this grid
                # point executes with the observability plane armed; the
                # per-run summaries land in the record (the full exports stay
                # in the worker — they are too large to ship to the pool,
                # but an `out_dir` key lands them on disk per cell).
                from repro.obs.config import ObserveSpec
                from repro.obs.session import ObservationSink, observation_sink

                if isinstance(observe_opt, Mapping) and "out_dir" in observe_opt:
                    observe_opt = dict(observe_opt)
                    # Cell subdirectory keyed by the spec hash: parallel
                    # workers can never collide on export paths.
                    obs_out_dir = Path(observe_opt.pop("out_dir")) / run.spec_hash
                spec = ObserveSpec.from_spec(observe_opt)
                scenario = dataclasses.replace(scenario, observe=spec)
                obs_sink = ObservationSink()
                stack.enter_context(observation_sink(obs_sink))
            with stack:
                if run.mode == "compare":
                    record["metrics"] = flatten_comparison(
                        _compare(runner, scenario, run, observer, record, baselines)
                    )
                else:
                    record["metrics"] = _execute_peak(runner, scenario, run.options)
            if obs_sink is not None:
                record["observability"] = [
                    obs.summary() for obs in obs_sink.observations
                ]
                if obs_out_dir is not None:
                    from repro.obs.export import observation_stem, write_observation

                    written: List[str] = []
                    for index, obs in enumerate(obs_sink.observations):
                        written.extend(
                            str(path)
                            for path in write_observation(
                                obs, obs_out_dir, observation_stem(obs, index)
                            )
                        )
                    record["observability_dir"] = str(obs_out_dir)
                    record["observability_files"] = written
            if observer is not None:
                record["violations"] = [v.as_dict() for v in observer.violations]
                record["runs_validated"] = observer.runs_checked
                if observer.violations:
                    record["status"] = "violation"
                    record["error"] = (
                        f"{len(observer.violations)} invariant violation(s); "
                        f"first: {observer.violations[0]}"
                    )
    except Exception as exc:  # noqa: BLE001 - worker must not crash the pool
        import traceback

        record["status"] = "error"
        record["error"] = f"{type(exc).__name__}: {exc}"
        record["traceback"] = traceback.format_exc()
    finally:
        if heartbeat is not None:
            heartbeat.stop()
    record["wall_time_s"] = time.perf_counter() - started
    return record


def _execute_peak(
    runner: ExperimentRunner, scenario, options: Dict[str, Any]
) -> Dict[str, Any]:
    """Run the §6.3.1 peak-goodput search for one grid point."""
    deployment = DeploymentKind(options.get("deployment", "payloadpark"))
    bounds = options.get("rate_bounds_gbps", (1.0, 60.0))
    rate, report = runner.peak_goodput(
        scenario,
        deployment=deployment,
        require_zero_premature_evictions=options.get(
            "require_zero_premature_evictions", True
        ),
        rate_bounds_gbps=(float(bounds[0]), float(bounds[1])),
        tolerance_gbps=float(options.get("tolerance_gbps", 1.0)),
    )
    metrics = {"peak_send_rate_gbps": rate}
    metrics.update(flatten_report(report, "peak_"))
    return metrics


@dataclass
class CampaignSummary:
    """What one executor invocation did."""

    total: int = 0
    executed: int = 0
    skipped: int = 0
    failed: int = 0
    #: Cells whose retry budget ran out (subset of ``failed``) — either
    #: stamped at resume time from store history or mid-run by the
    #: dispatcher after repeated crashes/timeouts.
    exhausted: int = 0
    #: Compare cells that simulated their baseline rather than reusing
    #: one an earlier cell of the same ``baseline_hash`` ran.
    baselines_simulated: int = 0
    wall_time_s: float = 0.0
    records: List[Dict[str, Any]] = field(default_factory=list)

    def as_row(self) -> Dict[str, Any]:
        """Flat dict for table rendering."""
        return {
            "total": self.total,
            "executed": self.executed,
            "skipped": self.skipped,
            "failed": self.failed,
            "exhausted": self.exhausted,
            "baselines_simulated": self.baselines_simulated,
            "wall_time_s": round(self.wall_time_s, 2),
        }


class CampaignExecutor:
    """Fans campaign runs out over worker processes.

    Parameters
    ----------
    workers:
        Worker process count.  ``1`` executes serially in-process (the
        debugging path); ``None`` uses the machine's CPU count.
    progress:
        Optional callback receiving each finished record.
    bus:
        Optional :class:`~repro.orchestrator.telemetrybus.TelemetryBus`.
        When set, workers stream cell-started events and heartbeats over
        its queue, and the executor emits finished/violation/obs events
        per record — live campaign state with zero per-event cost when
        absent (the default, and the path the bench overhead gate pins).
    log_level:
        CLI log level propagated into worker processes (workers
        otherwise inherit whatever logging config ``fork`` copied).
    heartbeat_interval_s:
        Seconds between per-cell worker heartbeats when a bus is set.
    cell_timeout_s:
        Per-cell wall-clock deadline under the parallel dispatcher; a
        cell past it loses its worker (SIGKILL) and is retried.  ``None``
        (the default) disables timeouts.  The serial path ignores this —
        there is no second process to take over.
    max_attempts:
        Retry budget per cell, counted across resumes via the store's
        ``error``/``violation`` history plus in-run crashes/timeouts.  A
        cell at the budget is stamped ``status: "exhausted"`` instead of
        being re-run.  ``None`` or ``0`` retries forever (the historical
        behavior).
    retry_backoff_s:
        Base of the exponential backoff between in-run retries.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        progress: Optional[ProgressCallback] = None,
        bus: Optional[TelemetryBus] = None,
        log_level: Optional[str] = None,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        cell_timeout_s: Optional[float] = None,
        max_attempts: Optional[int] = DEFAULT_MAX_ATTEMPTS,
        retry_backoff_s: float = DEFAULT_RETRY_BACKOFF_S,
    ) -> None:
        if workers is None:
            import multiprocessing

            workers = multiprocessing.cpu_count()
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if max_attempts is not None and max_attempts < 0:
            raise ValueError("max_attempts must be >= 0")
        if cell_timeout_s is not None:
            require_positive_finite("cell_timeout_s", cell_timeout_s)
        if not math.isfinite(retry_backoff_s):
            raise ValueError(f"retry_backoff_s must be finite, got {retry_backoff_s}")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        require_positive_finite("heartbeat_interval_s", heartbeat_interval_s)
        self.workers = workers
        self.progress = progress
        self.bus = bus
        self.log_level = log_level
        self.heartbeat_interval_s = heartbeat_interval_s
        self.cell_timeout_s = cell_timeout_s
        self.max_attempts = max_attempts or None
        self.retry_backoff_s = retry_backoff_s
        self._campaign_meta: Dict[str, Any] = {}

    def run_campaign(
        self,
        campaign: CampaignSpec,
        store: Optional[ResultStore] = None,
        resume: bool = True,
    ) -> CampaignSummary:
        """Expand *campaign* and execute every pending grid point."""
        self._campaign_meta = {
            "campaign": campaign.name,
            "scenario": campaign.scenario,
            "mode": campaign.mode,
        }
        try:
            return self.run_specs(campaign.expand(), store=store, resume=resume)
        finally:
            self._campaign_meta = {}

    def run_specs(
        self,
        specs: Sequence[RunSpec],
        store: Optional[ResultStore] = None,
        resume: bool = True,
    ) -> CampaignSummary:
        """Execute *specs*, skipping hashes the store already completed.

        Resume semantics, per :meth:`ResultStore.cell_states`: ``ok``
        and ``exhausted`` cells are skipped; a ``failing`` cell whose
        recorded failed attempts meet ``max_attempts`` is stamped with a
        terminal ``exhausted`` record (once) instead of being re-run;
        everything else is dispatched, with its store attempt count
        carried into the dispatcher's budget.
        """
        from repro.orchestrator.dispatcher import exhausted_record

        started = time.perf_counter()
        specs = dedupe_specs(specs)
        states = [("pending", 0)] * len(specs)
        if store is not None and resume:
            states = store.cell_states(spec.spec_hash for spec in specs)
        attempts: Dict[str, int] = {}
        pending: List[RunSpec] = []
        newly_exhausted: List[RunSpec] = []
        already_exhausted = 0
        for spec, (state, failed) in zip(specs, states):
            if state == "ok":
                continue
            if state == "exhausted":
                already_exhausted += 1
                continue
            attempts[spec.spec_hash] = failed
            if self.max_attempts is not None and failed >= self.max_attempts:
                newly_exhausted.append(spec)
            else:
                pending.append(spec)
        # Cells exhausted on an *earlier* resume are skipped like
        # completed ones; newly exhausted cells flow through the record
        # stream below so their terminal marker is stored and reported.
        summary = CampaignSummary(
            total=len(specs),
            skipped=len(specs) - len(pending) - len(newly_exhausted),
        )

        if self.bus is not None:
            self.bus.emit(
                {
                    "type": "campaign_started",
                    "total": len(specs),
                    "pending": len(pending),
                    "skipped": summary.skipped,
                    "exhausted": already_exhausted + len(newly_exhausted),
                    "workers": min(self.workers, len(pending)) or 1,
                    **self._campaign_meta,
                }
            )

        def stream() -> Iterable[Dict[str, Any]]:
            for spec in newly_exhausted:
                yield exhausted_record(
                    spec,
                    attempts[spec.spec_hash],
                    "recorded failures from previous runs",
                )
            for record in self._execute(pending, attempts):
                yield record

        try:
            for record in stream():
                summary.executed += 1
                status = record.get("status")
                if status != "ok":
                    summary.failed += 1
                if status == "exhausted":
                    summary.exhausted += 1
                if record.get("baseline_simulated"):
                    summary.baselines_simulated += 1
                if store is not None:
                    store.append(record)
                if self.bus is not None:
                    # Finished/violation/obs events come from the record on
                    # the orchestrator side — the worker's copy of the bus
                    # cannot know the final status before it returns it.
                    self.bus.emit_record(record)
                if self.progress is not None:
                    self.progress(record)
                summary.records.append(record)
        finally:
            summary.wall_time_s = time.perf_counter() - started
            if self.bus is not None:
                self.bus.emit(
                    {
                        "type": "campaign_finished",
                        "executed": summary.executed,
                        "failed": summary.failed,
                        "skipped": summary.skipped,
                        "wall_time_s": round(summary.wall_time_s, 4),
                    }
                )
        return summary

    def _execute(
        self,
        pending: Sequence[RunSpec],
        base_attempts: Optional[Mapping[str, int]] = None,
    ) -> Iterable[Dict[str, Any]]:
        if not pending:
            return
        if self.workers <= 1 or len(pending) == 1:
            # Serial path: same telemetry contract as the dispatcher,
            # armed in-process (and restored afterwards — the caller's
            # process outlives the campaign).  No second process exists
            # to recover a crash or enforce a timeout here; failures are
            # captured as error records and budgeted at the next resume.
            baselines: BaselineTable = {}
            with telemetrybus.worker_sink(
                self.bus.queue.put if self.bus is not None else None,
                self.heartbeat_interval_s,
            ):
                for spec in pending:
                    yield execute_run(spec, baselines)
            return
        # Imported lazily: the dispatcher's workers import this module.
        from repro.orchestrator.dispatcher import DispatchLoop

        loop = DispatchLoop(
            processes=min(self.workers, len(pending)),
            bus_queue=self.bus.queue if self.bus is not None else None,
            emit=self.bus.emit if self.bus is not None else None,
            log_level=self.log_level,
            heartbeat_interval_s=self.heartbeat_interval_s,
            cell_timeout_s=self.cell_timeout_s,
            max_attempts=self.max_attempts,
            retry_backoff_s=self.retry_backoff_s,
        )
        for record in loop.run(pending, base_attempts):
            yield record
