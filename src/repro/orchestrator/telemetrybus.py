"""Campaign events: the store's event lines folded into live campaign state.

:mod:`repro.obs` makes a single run observable; this module makes the
*campaign* observable.  The orchestrating process appends every event
to the campaign's result store, the one log it already owns: it writes
``cell_started`` when it leases a cell (or, serially, before it runs
one), a ``heartbeat`` while the dispatcher sees a leasing worker alive,
``cell_retried`` / ``worker_died`` when it recovers a lease, and the
campaign's start and finish — each a line with a ``type`` key, which
the store's own readers skip (:func:`~repro.orchestrator.store.
is_event`).  Worker processes only run cells.  A separate ``repro
campaign serve`` process attaches by tailing the store while the
campaign appends to it, folding every line into a
:class:`CampaignMonitor` — the live campaign state its endpoints
expose: progress, an ETA derived from completed-cell wall times,
per-dimension slice statistics and a deduplicated violation ledger.

A record reaches a monitor as the events :func:`events_from_record`
derives from it (stamped with the record's ``ts``), so every delivery —
a follower tailing the store live, a post-hoc read of the files —
funnels through :meth:`CampaignMonitor.handle`, which applies the
store's one rule (:func:`~repro.orchestrator.store.supersedes`: ok
wins, otherwise the most recent outcome) to ``cell_finished``.  Live
and post-hoc read the same lines, so they converge to the same state.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Mapping, Optional

from repro.orchestrator.store import (
    LIVE_STATUSES,
    TERMINAL_STATUSES,
    status_of,
    supersedes,
)

if TYPE_CHECKING:
    import logging

    from repro.orchestrator.spec import RunSpec

#: Default seconds between the dispatcher's heartbeats for a running cell.
DEFAULT_HEARTBEAT_INTERVAL_S = 5.0


# ---------------------------------------------------------------------- #
# Worker side: tag logs with the cell hash
# ---------------------------------------------------------------------- #

#: The cell currently executing in this process ("-" outside a cell);
#: worker log records are tagged with it (see :class:`CellTagFilter`).
_CURRENT_CELL: str = "-"


def current_cell_hash() -> str:
    """The spec hash of the cell executing in this process ("-" if none)."""
    return _CURRENT_CELL


@contextmanager
def cell_context(spec_hash: str) -> Iterator[None]:
    """Mark *spec_hash* as the running cell (log tagging)."""
    global _CURRENT_CELL
    previous = _CURRENT_CELL
    _CURRENT_CELL = spec_hash
    try:
        yield
    finally:
        _CURRENT_CELL = previous


class CellTagFilter:
    """Stamps every record with the running cell's hash (``record.cell``).

    :mod:`logging` takes any object with a ``filter`` method as a
    filter, so this class needs no :class:`logging.Filter` base.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        record.cell = _CURRENT_CELL
        return True


def configure_worker_logging(level_name: str) -> None:
    """The package's stderr handler, with every record tagged by cell hash.

    Interleaved multi-worker output stays attributable.
    """
    from repro.logconfig import configure_logging

    configure_logging(level_name, " [cell %(cell)s]", CellTagFilter())


# ---------------------------------------------------------------------- #
# Events the orchestrator derives (shared by the live path and replay)
# ---------------------------------------------------------------------- #


def cell_started_event(run: RunSpec, pid: int) -> Dict[str, Any]:
    """The ``cell_started`` event for *run*, executing in process *pid*.

    The dispatcher emits it when it leases the cell to a worker, the
    serial executor just before it runs the cell itself.
    """
    return {
        "type": "cell_started",
        "spec_hash": run.spec_hash,
        "scenario": run.scenario,
        "params": dict(run.params),
        "pid": pid,
    }


def events_from_record(record: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """The events one finished result record implies, at the record's ``ts``.

    A follower hands these to its monitor for each record it reads from
    the store, live or post hoc — which is why a monitor rebuilt from
    the store agrees with the live one on every cell, count and
    violation.
    """
    spec_hash = record.get("spec_hash")
    base = {
        "spec_hash": spec_hash,
        "scenario": record.get("scenario"),
        "params": dict(record.get("params", {})),
    }
    finished = {
        "type": "cell_finished",
        "status": status_of(record),
        "wall_time_s": record.get("wall_time_s"),
        **base,
    }
    if record.get("error"):
        finished["error"] = record["error"]
    if record.get("attempts") is not None:
        finished["attempts"] = record["attempts"]
    events = [finished]
    for violation in record.get("violations", []):
        events.append(
            {
                "type": "violation",
                "spec_hash": spec_hash,
                "scenario": violation.get("scenario") or record.get("scenario"),
                "deployment": violation.get("deployment", ""),
                "check": violation.get("check", ""),
                "message": violation.get("message", ""),
            }
        )
    if record.get("observability"):
        events.append(
            {
                "type": "obs_summary",
                "spec_hash": spec_hash,
                "summaries": len(record["observability"]),
                "deployments": [
                    summary.get("deployment")
                    for summary in record["observability"]
                ],
            }
        )
    if record.get("ts") is not None:
        for event in events:
            event["ts"] = record["ts"]
    return events


# ---------------------------------------------------------------------- #
# The monitor: live campaign state
# ---------------------------------------------------------------------- #


class CampaignMonitor:
    """Aggregates campaign events into the state the serve endpoints expose.

    Thread-safe: a store follower's thread writes while HTTP handler threads
    read.  All payload builders return plain JSON-serializable data.
    """

    def __init__(
        self,
        total: Optional[int] = None,
        campaign: Optional[str] = None,
        scenario: Optional[str] = None,
        mode: Optional[str] = None,
        events_capacity: int = 4096,
    ) -> None:
        self._lock = threading.RLock()
        self.campaign = campaign
        self.scenario = scenario
        self.mode = mode
        self.total = total
        self.workers: Optional[int] = None
        self.started_ts: Optional[float] = None
        self.finished = False
        self.cells: Dict[str, Dict[str, Any]] = {}
        self.retries_total = 0
        self.workers_died = 0
        self.violations: List[Dict[str, Any]] = []
        self._violation_keys: set = set()
        self.events: deque = deque(maxlen=events_capacity)
        self.events_seen = 0

    # ------------------------------------------------------------------ #
    # Event intake
    # ------------------------------------------------------------------ #

    def _cell(self, event: Mapping[str, Any]) -> Dict[str, Any]:
        spec_hash = event.get("spec_hash") or "?"
        cell = self.cells.get(spec_hash)
        if cell is None:
            cell = {
                "spec_hash": spec_hash,
                "scenario": event.get("scenario"),
                "params": dict(event.get("params") or {}),
                "status": "running",
                "wall_time_s": None,
                "violations": 0,
            }
            self.cells[spec_hash] = cell
        return cell

    def handle(self, event: Mapping[str, Any]) -> None:
        """Fold one event into the state (unknown types only hit the ring)."""
        etype = event.get("type")
        with self._lock:
            self.events_seen += 1
            stored = dict(event)
            # Records appended before they carried ``ts`` derive unstamped
            # events — stamp the ring copy so /events lines always validate.
            stored.setdefault("ts", time.time())
            self.events.append(stored)
            if etype == "campaign_started":
                for attr in ("campaign", "scenario", "mode"):
                    if getattr(self, attr) is None and event.get(attr) is not None:
                        setattr(self, attr, event[attr])
                if self.total is None and event.get("total") is not None:
                    self.total = int(event["total"])
                if event.get("workers"):
                    self.workers = int(event["workers"])
                # Each run, a resume included, starts its own elapsed clock.
                self.started_ts = event.get("ts")
                self.finished = False
            elif etype == "cell_started":
                cell = self._cell(event)
                if cell["status"] not in TERMINAL_STATUSES:
                    cell["status"] = "running"
                cell["started_ts"] = event.get("ts")
                if event.get("pid") is not None:
                    cell["pid"] = event["pid"]
            elif etype == "heartbeat":
                cell = self._cell(event)
                cell["heartbeat_ts"] = event.get("ts")
            elif etype == "cell_retried":
                cell = self._cell(event)
                if cell["status"] not in TERMINAL_STATUSES:
                    cell["status"] = "running"
                cell["retries"] = int(event.get("attempt", 0))
                if event.get("reason"):
                    cell["retry_reason"] = event["reason"]
                self.retries_total += 1
            elif etype == "worker_died":
                self.workers_died += 1
            elif etype == "cell_finished":
                cell = self._cell(event)
                status = status_of(event)
                if not supersedes(cell["status"], status):
                    return  # ok wins
                cell["status"], cell["wall_time_s"] = status, event.get("wall_time_s")
                if event.get("scenario"):
                    cell["scenario"] = event["scenario"]
                if event.get("params"):
                    cell["params"] = dict(event["params"])
                if event.get("error"):
                    cell["error"] = event["error"]
                else:
                    cell.pop("error", None)  # the superseded attempt's
                if event.get("ts") is not None:
                    cell["finished_ts"] = event["ts"]
            elif etype == "violation":
                key = (
                    event.get("spec_hash"),
                    event.get("check"),
                    event.get("deployment"),
                    event.get("message"),
                )
                if key not in self._violation_keys:
                    self._violation_keys.add(key)
                    entry = {
                        "spec_hash": event.get("spec_hash"),
                        "scenario": event.get("scenario"),
                        "deployment": event.get("deployment", ""),
                        "check": event.get("check", ""),
                        "message": event.get("message", ""),
                    }
                    if event.get("ts") is not None:
                        entry["ts"] = event["ts"]
                    self.violations.append(entry)
                    self._cell(event)["violations"] += 1
            elif etype == "obs_summary":
                cell = self._cell(event)
                cell["obs_summaries"] = event.get("summaries", 0)
            elif etype == "campaign_finished":
                self.finished = True

    # ------------------------------------------------------------------ #
    # Payloads (repro.campaign/v1)
    # ------------------------------------------------------------------ #

    def status(self) -> Dict[str, Any]:
        """The `/status` payload: progress, ETA, slice stats."""
        from repro.obs.schema import CAMPAIGN_SCHEMA

        with self._lock:
            by_status: Dict[str, int] = dict.fromkeys(LIVE_STATUSES, 0)
            wall_times: List[float] = []
            for cell in self.cells.values():
                status = cell["status"]
                by_status[status] = by_status.get(status, 0) + 1
                # Exhausted markers carry no execution time; folding their
                # 0.0 into the mean would skew the ETA optimistic.
                if (
                    status in TERMINAL_STATUSES
                    and status != "exhausted"
                    and cell["wall_time_s"] is not None
                ):
                    wall_times.append(float(cell["wall_time_s"]))
            done = sum(by_status[name] for name in TERMINAL_STATUSES)
            total = self.total if self.total is not None else len(self.cells)
            running = by_status["running"]
            pending = max(total - done - running, 0)
            mean_wall = (sum(wall_times) / len(wall_times)) if wall_times else None
            if self.finished or (total and done >= total):
                state = "finished"
                # An ETA of 0.0 is only meaningful once at least one cell
                # actually completed; a monitor marked finished before any
                # terminal record arrived (e.g. rebuilt from a store of
                # still-running cells) has no ETA to report yet.
                eta_s: Optional[float] = 0.0 if done else None
            else:
                state = "running" if running else "idle"
                if mean_wall is not None and total:
                    eta_s = round(
                        mean_wall * (total - done) / max(self.workers or 1, 1), 3
                    )
                else:
                    eta_s = None
            elapsed_s = (
                round(time.time() - self.started_ts, 3)
                if self.started_ts is not None and state != "finished"
                else None
            )
            return {
                "schema": CAMPAIGN_SCHEMA,
                "type": "status",
                "campaign": self.campaign,
                "scenario": self.scenario,
                "mode": self.mode,
                "state": state,
                "cells_total": total,
                "cells_done": done,
                **{f"cells_{name}": by_status[name] for name in LIVE_STATUSES},
                "cells_pending": pending,
                "retries_total": self.retries_total,
                "workers_died": self.workers_died,
                "violations_total": len(self.violations),
                "progress": round(done / total, 4) if total else 0.0,
                "mean_cell_wall_s": round(mean_wall, 4) if mean_wall is not None else None,
                "eta_s": eta_s,
                "elapsed_s": elapsed_s,
                "workers": self.workers,
                "events_seen": self.events_seen,
                "slices": self._slices(),
            }

    def _slices(self) -> Dict[str, Dict[str, Dict[str, Any]]]:
        """Per-dimension slice stats over terminal cells (lock held)."""
        slices: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for cell in self.cells.values():
            if cell["status"] not in TERMINAL_STATUSES:
                continue
            for axis, value in (cell.get("params") or {}).items():
                bucket = slices.setdefault(axis, {}).setdefault(
                    str(value),
                    {"cells": 0, "ok": 0, "failed": 0, "violations": 0, "wall_s": 0.0},
                )
                bucket["cells"] += 1
                if cell["status"] == "ok":
                    bucket["ok"] += 1
                else:
                    bucket["failed"] += 1
                bucket["violations"] += cell.get("violations", 0)
                if cell["wall_time_s"] is not None:
                    bucket["wall_s"] = round(
                        bucket["wall_s"] + float(cell["wall_time_s"]), 4
                    )
        for buckets in slices.values():
            for bucket in buckets.values():
                bucket["mean_wall_s"] = (
                    round(bucket.pop("wall_s") / bucket["cells"], 4)
                    if bucket["cells"]
                    else None
                )
        return slices

    def cells_payload(self) -> Dict[str, Any]:
        """The `/cells` payload: one entry per known cell, stable order."""
        from repro.obs.schema import CAMPAIGN_SCHEMA

        with self._lock:
            return {
                "schema": CAMPAIGN_SCHEMA,
                "type": "cells",
                "campaign": self.campaign,
                "cells": [dict(cell) for cell in self.cells.values()],
            }

    def violations_payload(self) -> Dict[str, Any]:
        """The `/violations` payload: the deduplicated ledger, in order."""
        from repro.obs.schema import CAMPAIGN_SCHEMA

        with self._lock:
            return {
                "schema": CAMPAIGN_SCHEMA,
                "type": "violations",
                "campaign": self.campaign,
                "violations": [dict(entry) for entry in self.violations],
            }

    def events_tail(self, limit: int = 100) -> List[Dict[str, Any]]:
        """The most recent *limit* events, oldest first."""
        with self._lock:
            tail = list(self.events)
        if limit >= 0:
            tail = tail[-limit:] if limit else []
        return tail
