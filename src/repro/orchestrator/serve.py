"""``repro campaign serve``: HTTP endpoints over live campaign state.

Stdlib-only (:mod:`http.server`), by design — the serve surface must
work in the same container as the campaign with zero extra deps.  A
:class:`CampaignServer` wraps a :class:`~repro.orchestrator.
telemetrybus.CampaignMonitor` and exposes:

``/status``
    Progress, ETA, per-dimension slice stats (``repro.campaign/v1``).
``/cells``
    One entry per known grid cell.
``/violations``
    The deduplicated invariant-violation ledger.
``/events?n=N``
    NDJSON tail of the most recent bus events.
``/metrics``
    Prometheus text exposition (``text/plain; version=0.0.4``).

The same server runs in two modes.  *Post-hoc*, the monitor is rebuilt
from the result store alone (:func:`monitor_from_store`).  *Live*, a
:class:`StoreFollower` thread tails the store and its telemetry-events
sidecar while another process appends to them — offsets guarantee each
line is folded exactly once, and a store record is skipped when its cell
is already ``ok`` (the store's ok-wins rule) or already shows the
record's status, so a cell seen through the events file is not
double-counted when its record lands in the store.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.obs.schema import (
    validate_campaign_cells,
    validate_campaign_status,
    validate_campaign_violations,
)
from repro.orchestrator.store import ResultStore, events_path_for
from repro.orchestrator.telemetrybus import (
    TERMINAL_STATUSES,
    CampaignMonitor,
    events_from_record,
)

logger = logging.getLogger("repro.orchestrator.serve")

#: Content type mandated by the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INDEX = {
    "endpoints": ["/status", "/cells", "/violations", "/events", "/metrics"],
    "schema": "repro.campaign/v1",
}


def monitor_from_store(
    campaign: Optional[Any] = None,
    store: Optional[ResultStore] = None,
    events_path: Optional[Path] = None,
) -> CampaignMonitor:
    """Rebuild a monitor post-hoc from a result store (and spec, if given).

    Replays the latest record per cell through the same
    :func:`events_from_record` translation the live bus uses, so the
    resulting state matches what a live monitor would have converged to.
    """
    monitor = CampaignMonitor(
        total=campaign.point_count if campaign is not None else None,
        campaign=getattr(campaign, "name", None),
        scenario=getattr(campaign, "scenario", None),
        mode=getattr(campaign, "mode", None),
    )
    if store is not None:
        for record in store.latest_by_hash().values():
            for event in events_from_record(record):
                monitor.handle(event)
    if events_path is not None and Path(events_path).exists():
        _replay_events_file(monitor, Path(events_path))
    # Only *terminal* cells count toward completion: a store replayed
    # mid-campaign holds running cells too, and marking the monitor
    # finished from their mere presence made `/status` claim a finished
    # campaign (with ``eta_s: 0.0``) at t=0.
    terminal = sum(
        1 for cell in monitor.cells.values()
        if cell["status"] in TERMINAL_STATUSES
    )
    if monitor.total is not None and terminal >= monitor.total:
        monitor.finished = True
    return monitor


def _replay_events_file(monitor: CampaignMonitor, events_path: Path) -> None:
    """Fold non-terminal context (timestamps, workers) from the sidecar."""
    with events_path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if event.get("type") in ("cell_finished", "violation", "obs_summary"):
                if monitor.has_terminal(event.get("spec_hash", "")):
                    continue
            monitor.handle(event)


class StoreFollower(threading.Thread):
    """Tails a store (all shards) and its events sidecar into a monitor.

    Byte offsets ensure every complete line is consumed exactly once;
    a torn trailing line (no newline yet) is left for the next poll.
    The set of store files is re-resolved on every poll, so shard files
    that appear after the follower starts are picked up live.
    """

    def __init__(
        self,
        monitor: CampaignMonitor,
        store_path: Path,
        events_path: Optional[Path] = None,
        poll_interval_s: float = 0.5,
    ) -> None:
        super().__init__(daemon=True, name="store-follower")
        self.monitor = monitor
        self.store_path = Path(store_path)
        self._store = ResultStore(store_path)
        self.events_path = (
            Path(events_path) if events_path is not None
            else events_path_for(store_path)
        )
        self.poll_interval_s = poll_interval_s
        self._offsets: Dict[Path, int] = {}
        self._stopped = threading.Event()

    def poll_once(self) -> int:
        """Consume new complete lines from every file; returns lines folded."""
        folded = 0
        folded += self._consume(self.events_path, from_store=False)
        for path in self._store.reader_paths():
            folded += self._consume(path, from_store=True)
        return folded

    def _consume(self, path: Path, from_store: bool) -> int:
        if not path.exists():
            return 0
        folded = 0
        offset = self._offsets.get(path, 0)
        with path.open("rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
        # Only complete lines count; a torn tail stays unconsumed.
        end = chunk.rfind(b"\n")
        if end < 0:
            return 0
        self._offsets[path] = offset + end + 1
        for raw in chunk[: end + 1].splitlines():
            raw = raw.strip()
            if not raw:
                continue
            try:
                data = json.loads(raw)
            except json.JSONDecodeError:
                continue
            if from_store:
                # Ok-wins, like the post-hoc replay; a record whose
                # outcome the events sidecar already delivered is not
                # folded twice.
                if self.monitor.outranks(
                    data.get("spec_hash", ""), data.get("status", "ok")
                ):
                    continue
                for event in events_from_record(data):
                    self.monitor.handle(event)
            else:
                self.monitor.handle(data)
            folded += 1
        return folded

    def run(self) -> None:
        while not self._stopped.is_set():
            try:
                self.poll_once()
            except OSError:
                logger.warning("store follower poll failed", exc_info=True)
            self._stopped.wait(self.poll_interval_s)
        self.poll_once()

    def stop(self) -> None:
        self._stopped.set()
        if self.is_alive():
            self.join()


def prometheus_text(status: Dict[str, Any]) -> str:
    """Render a `/status` payload in Prometheus text exposition format."""
    labels = []
    if status.get("campaign"):
        labels.append(f'campaign="{status["campaign"]}"')
    label_str = "{" + ",".join(labels) + "}" if labels else ""

    def metric(name: str, value: Any, help_text: str, kind: str = "gauge",
               extra_labels: str = "") -> str:
        if value is None:
            return ""
        if extra_labels:
            inner = ",".join(filter(None, [*labels, extra_labels]))
            target = f"{name}{{{inner}}}"
        else:
            target = f"{name}{label_str}"
        return (
            f"# HELP {name} {help_text}\n"
            f"# TYPE {name} {kind}\n"
            f"{target} {value}\n"
        )

    lines = [
        metric("repro_campaign_cells_total", status["cells_total"],
               "Grid cells in the campaign."),
        metric("repro_campaign_cells_done", status["cells_done"],
               "Cells with a terminal status."),
        "# HELP repro_campaign_cells Cells by state.\n"
        "# TYPE repro_campaign_cells gauge\n",
    ]
    for state in ("ok", "error", "violation", "exhausted", "running", "pending"):
        value = status.get(f"cells_{state}")
        if value is None:
            continue
        inner = ",".join(filter(None, [*labels, f'state="{state}"']))
        lines.append(f"repro_campaign_cells{{{inner}}} {value}\n")
    lines.extend([
        metric("repro_campaign_violations_total", status["violations_total"],
               "Distinct invariant violations observed.", kind="counter"),
        metric("repro_campaign_retries_total", status.get("retries_total"),
               "Cell dispatch retries after crashes or timeouts.",
               kind="counter"),
        metric("repro_campaign_workers_died_total", status.get("workers_died"),
               "Worker processes lost to crashes or timeout kills.",
               kind="counter"),
        metric("repro_campaign_progress", status["progress"],
               "Fraction of cells finished."),
        metric("repro_campaign_eta_seconds", status.get("eta_s"),
               "Estimated seconds until campaign completion."),
        metric("repro_campaign_mean_cell_wall_seconds",
               status.get("mean_cell_wall_s"),
               "Mean wall time of completed cells."),
        metric("repro_campaign_workers", status.get("workers"),
               "Worker processes executing cells."),
        metric("repro_campaign_events_seen", status.get("events_seen"),
               "Telemetry events folded into this monitor.", kind="counter"),
    ])
    return "".join(lines)


class CampaignRequestHandler(BaseHTTPRequestHandler):
    """Routes the five read-only endpoints; every JSON payload is
    schema-validated *before* it goes on the wire."""

    server_version = "ReproCampaignServe/1.0"

    @property
    def monitor(self) -> CampaignMonitor:
        return self.server.monitor  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        try:
            if route == "/":
                self._send_json(200, _INDEX)
            elif route == "/status":
                self._send_json(200, validate_campaign_status(self.monitor.status()))
            elif route == "/cells":
                self._send_json(
                    200, validate_campaign_cells(self.monitor.cells_payload())
                )
            elif route == "/violations":
                self._send_json(
                    200, validate_campaign_violations(self.monitor.violations_payload())
                )
            elif route == "/events":
                query = parse_qs(parsed.query)
                try:
                    limit = int(query.get("n", ["100"])[0])
                except ValueError:
                    self._send_json(400, {"error": "n must be an integer"})
                    return
                body = "".join(
                    json.dumps(event, sort_keys=True) + "\n"
                    for event in self.monitor.events_tail(limit)
                )
                self._send_bytes(
                    200, body.encode("utf-8"), "application/x-ndjson"
                )
            elif route == "/metrics":
                status = validate_campaign_status(self.monitor.status())
                self._send_bytes(
                    200, prometheus_text(status).encode("utf-8"),
                    PROMETHEUS_CONTENT_TYPE,
                )
            else:
                self._send_json(404, {"error": f"no such endpoint {route!r}",
                                      **_INDEX})
        except Exception:  # noqa: BLE001 - a handler crash must not kill the server
            logger.exception("request handler failed for %s", self.path)
            try:
                self._send_json(500, {"error": "internal error"})
            except OSError:
                pass

    def _send_json(self, code: int, payload: Dict[str, Any]) -> None:
        self._send_bytes(
            code,
            json.dumps(payload, sort_keys=True, indent=2).encode("utf-8"),
            "application/json",
        )

    def _send_bytes(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt: str, *args: Any) -> None:
        logger.debug("%s %s", self.address_string(), fmt % args)


class CampaignServer:
    """A threaded HTTP server bound to one campaign monitor."""

    def __init__(
        self,
        monitor: CampaignMonitor,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.monitor = monitor
        self.httpd = ThreadingHTTPServer((host, port), CampaignRequestHandler)
        self.httpd.daemon_threads = True
        self.httpd.monitor = monitor  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — port is concrete even when 0 was asked."""
        return self.httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "CampaignServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                daemon=True,
                name="campaign-serve",
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Block serving requests (the CLI foreground path)."""
        self.httpd.serve_forever(poll_interval=0.1)

    def stop(self) -> None:
        self.httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.httpd.server_close()

    def __enter__(self) -> "CampaignServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
