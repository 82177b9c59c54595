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

There is one way state reaches the monitor: a :class:`StoreFollower`
reads the complete lines each store file and the telemetry-events
sidecar gained since its previous poll (the store's own tail reader,
:func:`~repro.orchestrator.store.read_appended`) and hands them to
:meth:`CampaignMonitor.handle`, which decides what they change.  *Live*,
the follower is a thread polling while another process appends.
*Post-hoc* (:func:`monitor_from_store`, ``serve --no-follow``) is the
same follower polled once — so the two agree by construction, and with
``campaign status`` / ``report``, whose index applies the same rule.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import require_positive_finite
from repro.obs.schema import (
    validate_campaign_cells,
    validate_campaign_status,
    validate_campaign_violations,
)
from repro.orchestrator.store import (
    CELL_STATES,
    ResultStore,
    events_path_for,
    read_appended,
)
from repro.orchestrator.telemetrybus import CampaignMonitor, events_from_record

logger = logging.getLogger("repro.orchestrator.serve")

#: Content type mandated by the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INDEX = {
    "endpoints": ["/status", "/cells", "/violations", "/events", "/metrics"],
    "schema": "repro.campaign/v1",
}


def monitor_from_store(
    campaign: Optional[Any] = None, store: Optional[ResultStore] = None
) -> CampaignMonitor:
    """A monitor over what is on disk now: a follower's first poll.

    Sized and labelled from *campaign* when given; without a *store* it
    is the empty monitor a follower starts from.
    """
    monitor = CampaignMonitor(
        total=campaign.point_count if campaign is not None else None,
        campaign=getattr(campaign, "name", None),
        scenario=getattr(campaign, "scenario", None),
        mode=getattr(campaign, "mode", None),
    )
    if store is not None:
        StoreFollower(monitor, store.path).poll_once()
    return monitor


class StoreFollower(threading.Thread):
    """Tails a store (all shards) and its events sidecar into a monitor.

    Byte offsets ensure every complete line is read exactly once; a torn
    trailing line (no newline yet) is left for the next poll.  The set
    of store files is re-resolved on every poll, so shard files that
    appear after the follower starts are picked up live.  Nothing is
    filtered here: a store record becomes the events it implies, and
    the monitor drops what it has already folded or what the rule says
    must not replace a cell's outcome.
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
        self._store = ResultStore(store_path)
        self.events_path = (
            Path(events_path) if events_path is not None
            else events_path_for(store_path)
        )
        require_positive_finite("poll_interval_s", poll_interval_s)
        self.poll_interval_s = poll_interval_s
        self._offsets: Dict[Path, int] = {}
        self._stopped = threading.Event()

    def poll_once(self) -> int:
        """Hand the monitor every line appended since the last poll; returns how many.

        Store files come first — records are durable and written before
        their events are emitted — so cells appear in store order and
        the sidecar adds what only it knows: workers, pids, heartbeats,
        retries, cells still running.
        """
        seen = 0
        for path in (*self._store.reader_paths(), self.events_path):
            lines, self._offsets[path] = read_appended(
                path, self._offsets.get(path, 0)
            )
            sidecar = path == self.events_path  # its lines are events already
            for line in lines:
                for event in [line] if sidecar else events_from_record(line):
                    self.monitor.handle(event)
            seen += len(lines)
        return seen

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
    for state in CELL_STATES:
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
