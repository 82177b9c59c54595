"""Fault-tolerant work-queue dispatcher for campaign cells.

The old executor fanned cells through ``Pool.imap_unordered``, which is
a barrier with no failure story: one wedged or OOM-killed worker stalled
the whole campaign forever, because the pool neither times a task out
nor re-queues the task a dead worker was holding.  This module replaces
it with an explicit dispatch loop:

- every worker is a plain ``multiprocessing.Process`` joined to the
  dispatcher by a private duplex :func:`~multiprocessing.Pipe` — no
  shared queue locks, so a worker killed mid-anything can never wedge
  its siblings;
- cells are **leased** to workers one at a time; a lease carries the
  cell's attempt number and, when a per-cell timeout is configured, a
  deadline.  An idle worker gets a ready cell whose baseline it already
  holds, else one whose baseline no other worker holds, else the oldest
  (each worker keeps the baselines it simulated, see
  :func:`~repro.orchestrator.executor.execute_run`);
- a worker that dies (crash, OOM kill) or blows its deadline loses the
  lease: the dispatcher SIGKILLs it if needed, re-queues the cell with
  exponential backoff, spawns a replacement worker, and emits
  ``worker_died`` / ``cell_retried`` events;
- workers only run cells: the dispatcher itself emits a lease's
  ``cell_started`` (with the worker's pid) and, while its health scan
  sees the leasing process alive, a ``heartbeat`` every
  ``heartbeat_interval_s``.  The executor hands it the result store's
  append as its sink, so every event becomes a line of the store;
- retries are bounded: once a cell's attempts (including failed
  attempts recorded in the store by previous resumes) reach the budget,
  the dispatcher synthesizes a terminal ``status: "exhausted"`` record
  instead of re-queueing, so every grid point always ends ``ok``,
  ``error``/``violation``, or ``exhausted`` — never stalled.

Deterministic chaos injection for tests and the CI
``dispatcher-chaos-smoke`` job lives here too: the
``REPRO_CAMPAIGN_CHAOS`` environment variable carries JSON rules that
make matching cells crash their worker or hang on selected attempts,
*outside* the spec (so a chaos run's records are comparable to a clean
run's).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import math
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import (
    Any, Callable, Deque, Dict, Iterator, List, Mapping, Optional, Sequence, Set,
)

from repro.errors import require_positive_finite
from repro.orchestrator.spec import RunSpec
from repro.orchestrator.telemetrybus import (
    DEFAULT_HEARTBEAT_INTERVAL_S,
    cell_started_event,
    configure_worker_logging,
)

logger = logging.getLogger("repro.orchestrator.dispatcher")

#: Dispatch loop tick: how long one wait() round blocks at most.
TICK_S = 0.05

#: Ceiling on the exponential retry backoff.
MAX_BACKOFF_S = 30.0

#: Environment variable carrying JSON chaos-injection rules (see
#: :func:`apply_chaos`).  Out-of-band by design: chaos never changes a
#: cell's spec hash, so chaos-run records are comparable to clean runs.
CHAOS_ENV = "REPRO_CAMPAIGN_CHAOS"


def exhausted_record(spec: RunSpec, attempts: int, reason: str) -> Dict[str, Any]:
    """The terminal record for a cell whose retry budget is spent."""
    return {
        "spec_hash": spec.spec_hash,
        "scenario": spec.scenario,
        "mode": spec.mode,
        "params": dict(spec.params),
        "options": dict(spec.options),
        "time_scale": spec.time_scale,
        "status": "exhausted",
        "attempts": attempts,
        "error": (
            f"retry budget exhausted after {attempts} failed attempt(s); "
            f"last failure: {reason}"
        ),
        "wall_time_s": 0.0,
    }


# ---------------------------------------------------------------------- #
# Chaos injection (worker side)
# ---------------------------------------------------------------------- #


def chaos_rules() -> List[Dict[str, Any]]:
    """Parse ``REPRO_CAMPAIGN_CHAOS``: a JSON list of rules, or []."""
    raw = os.environ.get(CHAOS_ENV)
    if not raw:
        return []
    try:
        rules = json.loads(raw)
    except ValueError:
        logger.warning("ignoring malformed %s", CHAOS_ENV)
        return []
    return [rule for rule in rules if isinstance(rule, dict)] if isinstance(rules, list) else []


def apply_chaos(spec: RunSpec, attempt: int) -> None:
    """Apply any matching chaos rule to this lease, in the worker.

    A rule is ``{"match": {param: value, ...}, "crash_attempts": N,
    "hang_attempts": N, "hang_s": seconds}``; it fires for cells whose
    params contain every ``match`` pair.  ``crash_attempts: N`` SIGKILLs
    the worker on the first N attempts (a real worker crash — no record,
    no goodbye); ``hang_attempts: N`` sleeps ``hang_s`` first, which a
    per-cell timeout then treats exactly like a wedged cell.
    """
    for rule in chaos_rules():
        match = rule.get("match", {})
        if not isinstance(match, Mapping):
            continue
        if any(spec.params.get(key) != value for key, value in match.items()):
            continue
        if attempt < int(rule.get("crash_attempts", 0)):
            os.kill(os.getpid(), signal.SIGKILL)
        if attempt < int(rule.get("hang_attempts", 0)):
            time.sleep(float(rule.get("hang_s", 3600.0)))


def _dispatch_worker_main(worker_id: int, conn, log_level: Optional[str]) -> None:
    """Worker loop: receive leases over the pipe, send back records.

    The CLI's ``--log-level`` follows the campaign into the worker, so
    its records are not stuck at whatever config ``fork`` copied, and
    each is tagged with the running cell's hash.
    """
    from repro.orchestrator.executor import BaselineTable, execute_run

    if log_level is not None:
        configure_worker_logging(log_level)
    baselines: BaselineTable = {}  # lives as long as this worker
    while True:
        try:
            lease = conn.recv()
        except (EOFError, OSError):
            return
        if lease is None:
            return
        spec, attempt = lease
        apply_chaos(spec, attempt)
        record = execute_run(spec, baselines)
        try:
            conn.send(record)
        except (BrokenPipeError, OSError):
            return


# ---------------------------------------------------------------------- #
# Dispatcher side
# ---------------------------------------------------------------------- #


@dataclass(eq=False)
class _PendingCell:
    """A cell waiting for a worker (possibly in retry backoff)."""

    spec: RunSpec
    attempt: int      # failed attempts so far (store history + this run)
    ready_at: float   # monotonic time at which it may be leased
    #: The key a worker keeps this cell's baseline under (None: never shared).
    baseline: Optional[str] = None


class _Worker:
    """One worker process plus its lease state."""

    def __init__(self, ctx, worker_id: int, spawn_args: tuple) -> None:
        self.id = worker_id
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        self.process = ctx.Process(
            target=_dispatch_worker_main,
            args=(worker_id, child_conn, *spawn_args),
            daemon=True,
            name=f"campaign-worker-{worker_id}",
        )
        self.process.start()
        child_conn.close()
        self.lease: Optional[_PendingCell] = None
        self.deadline: Optional[float] = None
        #: Monotonic time of the lease's last cell_started or heartbeat.
        self.beat_at = 0.0
        #: Baselines this process holds, or is simulating for its lease.
        self.baselines: Set[str] = set()

    @property
    def idle(self) -> bool:
        return self.lease is None

    def assign(self, cell: _PendingCell, deadline: Optional[float]) -> None:
        self.conn.send((cell.spec, cell.attempt))
        self.lease = cell
        self.deadline = deadline
        if cell.baseline is not None:
            self.baselines.add(cell.baseline)

    def release(self) -> None:
        self.lease = None
        self.deadline = None

    def kill(self) -> None:
        """SIGKILL the process and reap it; safe on an already-dead worker."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass

    def shutdown(self) -> None:
        """Ask the worker to exit; escalate to SIGKILL if it does not."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5.0)
        self.kill()


class DispatchLoop:
    """Leases cells to worker processes until every cell is terminal.

    Parameters
    ----------
    processes:
        Worker process count.
    emit:
        Event sink (the executor's store append, or ``None``), called
        from the thread that runs the loop, for every campaign event the
        dispatcher knows: ``cell_started`` per lease, ``heartbeat``,
        ``cell_retried`` and ``worker_died``.  A sink that raises is
        logged and never stops dispatch.
    log_level:
        Log level for the worker processes (``None`` leaves theirs as
        ``fork`` copied it).
    heartbeat_interval_s:
        Seconds a live lease goes without an event before the health
        scan emits a ``heartbeat`` for it.
    cell_timeout_s:
        Per-cell wall-clock deadline.  ``None`` disables timeouts (a
        worker crash is still recovered either way).
    max_attempts:
        Retry budget per cell, counting failed attempts recorded in the
        store by earlier resumes.  ``None``/0 retries forever.
    retry_backoff_s:
        Base of the exponential backoff between retries of one cell.
    """

    def __init__(
        self,
        processes: int,
        emit: Optional[Callable[[Dict[str, Any]], None]] = None,
        log_level: Optional[str] = None,
        heartbeat_interval_s: float = DEFAULT_HEARTBEAT_INTERVAL_S,
        cell_timeout_s: Optional[float] = None,
        max_attempts: Optional[int] = 3,
        retry_backoff_s: float = 0.5,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be at least 1")
        if cell_timeout_s is not None:
            require_positive_finite("cell_timeout_s", cell_timeout_s)
        if not 0 <= retry_backoff_s < math.inf:
            raise ValueError(f"retry_backoff_s must be finite and >= 0, got {retry_backoff_s}")
        require_positive_finite("heartbeat_interval_s", heartbeat_interval_s)
        import multiprocessing

        self.processes = processes
        self.cell_timeout_s = cell_timeout_s
        self.max_attempts = max_attempts
        self.retry_backoff_s = retry_backoff_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self._ctx = multiprocessing.get_context()
        self._spawn_args = (log_level,)
        self._emit = emit
        self._workers: Dict[int, _Worker] = {}
        self._next_worker_id = 0

    # ------------------------------------------------------------------ #
    # Events
    # ------------------------------------------------------------------ #

    def _event(self, event: Dict[str, Any]) -> None:
        if self._emit is None:
            return
        try:
            self._emit(event)
        except Exception:  # noqa: BLE001 - telemetry must never kill dispatch
            logger.debug("dispatcher event emit failed", exc_info=True)

    # ------------------------------------------------------------------ #
    # Worker management
    # ------------------------------------------------------------------ #

    def _spawn(self) -> _Worker:
        worker = _Worker(self._ctx, self._next_worker_id, self._spawn_args)
        self._workers[worker.id] = worker
        self._next_worker_id += 1
        return worker

    def _idle_worker(self, want_more: bool) -> Optional[_Worker]:
        for worker in self._workers.values():
            if worker.idle and worker.process.is_alive():
                return worker
        if want_more and len(self._workers) < self.processes:
            return self._spawn()
        return None

    def _remove(self, worker: _Worker) -> None:
        worker.kill()
        self._workers.pop(worker.id, None)

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #

    def run(
        self,
        specs: Sequence[RunSpec],
        base_attempts: Optional[Mapping[str, int]] = None,
    ) -> Iterator[Dict[str, Any]]:
        """Dispatch *specs*; yield one terminal record per cell, completion order."""
        if not specs:
            return
        base = dict(base_attempts or {})
        now = time.monotonic()
        ready: Deque[_PendingCell] = deque(
            _PendingCell(
                spec,
                base.get(spec.spec_hash, 0),
                now,
                spec.baseline_hash if spec.shares_baseline else None,
            )
            for spec in specs
        )
        for _ in range(min(self.processes, len(ready))):
            self._spawn()
        remaining = len(ready)
        try:
            while remaining > 0:
                self._assign(ready)
                for record in self._collect(ready):
                    remaining -= 1
                    yield record
        finally:
            for worker in list(self._workers.values()):
                worker.shutdown()
            self._workers.clear()

    def _assign(self, ready: Deque[_PendingCell]) -> None:
        """Lease ready cells (not in backoff) to idle workers, by affinity."""
        now = time.monotonic()
        while True:
            leasable = [cell for cell in ready if cell.ready_at <= now]
            if not leasable:
                return
            worker = self._idle_worker(want_more=True)
            if worker is None:
                return
            cell = self._choose(worker, leasable)
            ready.remove(cell)
            deadline = (
                now + self.cell_timeout_s if self.cell_timeout_s is not None else None
            )
            try:
                worker.assign(cell, deadline)
            except (BrokenPipeError, OSError):
                # The worker died while idle; retire it and try again on
                # the next pass — the cell was never leased.
                ready.appendleft(cell)
                self._event(self._worker_died_event(worker, "crashed", None))
                self._remove(worker)
                return
            worker.beat_at = now
            self._event(cell_started_event(cell.spec, worker.process.pid))

    def _choose(self, worker: _Worker, leasable: List[_PendingCell]) -> _PendingCell:
        """The cell *worker* runs next: one whose baseline it already holds,
        else one whose baseline no other worker holds, else the oldest."""
        held_elsewhere: Set[str] = set()
        for other in self._workers.values():
            if other is not worker:
                held_elsewhere |= other.baselines
        unclaimed = None
        for cell in leasable:
            if cell.baseline in worker.baselines:
                return cell
            if unclaimed is None and cell.baseline not in held_elsewhere:
                unclaimed = cell
        return unclaimed if unclaimed is not None else leasable[0]

    def _collect(self, ready: Deque[_PendingCell]) -> List[Dict[str, Any]]:
        """One wait round plus a health scan; returns terminal records."""
        records: List[Dict[str, Any]] = []
        by_conn = {
            worker.conn: worker
            for worker in self._workers.values()
            if worker.lease is not None
        }
        if by_conn:
            for conn in connection_wait(list(by_conn), timeout=TICK_S):
                worker = by_conn[conn]
                try:
                    record = conn.recv()
                except (EOFError, OSError):
                    continue  # death: the health scan below reaps it
                worker.release()
                records.append(record)
        else:
            time.sleep(TICK_S)
        now = time.monotonic()
        for worker in list(self._workers.values()):
            if worker.lease is None:
                continue
            if not worker.process.is_alive():
                records.extend(self._reap(worker, ready, reason="crashed"))
            elif worker.deadline is not None and now >= worker.deadline:
                records.extend(self._reap(worker, ready, reason="timeout"))
            elif now - worker.beat_at >= self.heartbeat_interval_s:
                worker.beat_at = now
                self._event(
                    {
                        "type": "heartbeat",
                        "spec_hash": worker.lease.spec.spec_hash,
                        "pid": worker.process.pid,
                    }
                )
        return records

    def _reap(
        self, worker: _Worker, ready: Deque[_PendingCell], reason: str
    ) -> List[Dict[str, Any]]:
        """Recover a dead or deadline-blown worker's lease."""
        cell = worker.lease
        assert cell is not None
        pid = worker.process.pid
        self._event(self._worker_died_event(worker, reason, cell.spec.spec_hash))
        logger.warning(
            "worker %d (pid %s) %s while running cell %s (attempt %d)",
            worker.id, pid, reason, cell.spec.spec_hash, cell.attempt + 1,
        )
        self._remove(worker)
        attempts = cell.attempt + 1
        if self.max_attempts and attempts >= self.max_attempts:
            failure = f"worker {reason} (pid {pid})"
            return [exhausted_record(cell.spec, attempts, failure)]
        backoff = min(
            self.retry_backoff_s * (2 ** max(attempts - 1, 0)), MAX_BACKOFF_S
        )
        self._event(
            {
                "type": "cell_retried",
                "spec_hash": cell.spec.spec_hash,
                "scenario": cell.spec.scenario,
                "params": dict(cell.spec.params),
                "attempt": attempts,
                "reason": reason,
                "backoff_s": round(backoff, 3),
            }
        )
        ready.append(
            dataclasses.replace(
                cell, attempt=attempts, ready_at=time.monotonic() + backoff
            )
        )
        return []

    @staticmethod
    def _worker_died_event(
        worker: _Worker, reason: str, spec_hash: Optional[str]
    ) -> Dict[str, Any]:
        return {
            "type": "worker_died",
            "worker": worker.id,
            "pid": worker.process.pid,
            "reason": reason,
            "spec_hash": spec_hash,
        }
