"""Export-schema validators for the observability plane.

These run in three places with one implementation: the unit/integration
suites (every export a test touches must validate), the CLI (exports
are validated *before* they are written, so a malformed file can never
be shipped), and the CI observe-smoke step (which re-validates the
files the smoke run produced).  All validators raise
:class:`SchemaError` (a :class:`~repro.errors.ObserveSpecError`) with a
path-ish message pointing at the offending field.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.errors import ObserveSpecError
from repro.obs.metrics import METRICS_SCHEMA
from repro.obs.profiler import PROFILE_SCHEMA
from repro.obs.trace import TRACE_SCHEMA


class SchemaError(ObserveSpecError):
    """An observability export that violates its declared schema."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaError(message)


def _require_keys(data: Dict[str, Any], keys, where: str) -> None:
    _require(isinstance(data, dict), f"{where}: expected an object")
    missing = [key for key in keys if key not in data]
    _require(not missing, f"{where}: missing key(s) {missing}")


def validate_metrics(data: Any) -> Dict[str, Any]:
    """Validate a ``repro.metrics/v1`` export; returns it for chaining."""
    _require_keys(
        data,
        ("schema", "sample_interval_ns", "samples_taken",
         "counters", "gauges", "histograms", "series"),
        "metrics export",
    )
    _require(
        data["schema"] == METRICS_SCHEMA,
        f"metrics export: schema {data.get('schema')!r} != {METRICS_SCHEMA!r}",
    )
    for name, entry in data["series"].items():
        _require_keys(entry, ("kind", "points", "dropped_samples"), f"series {name!r}")
        _require(
            entry["kind"] in ("gauge", "cumulative"),
            f"series {name!r}: bad kind {entry['kind']!r}",
        )
        previous_ts = None
        for point in entry["points"]:
            _require(
                isinstance(point, (list, tuple)) and len(point) == 2,
                f"series {name!r}: points must be [t_ns, value] pairs",
            )
            _require(
                previous_ts is None or point[0] >= previous_ts,
                f"series {name!r}: timestamps must be non-decreasing",
            )
            previous_ts = point[0]
        if entry["kind"] == "cumulative":
            _require("rates_per_s" in entry, f"series {name!r}: missing rates_per_s")
    for name, histogram in data["histograms"].items():
        _require_keys(
            histogram, ("bounds", "counts", "count", "mean"), f"histogram {name!r}"
        )
        _require(
            len(histogram["counts"]) == len(histogram["bounds"]) + 1,
            f"histogram {name!r}: counts must have len(bounds)+1 buckets",
        )
        _require(
            sum(histogram["counts"]) == histogram["count"],
            f"histogram {name!r}: bucket counts do not sum to count",
        )
    return data


def validate_trace_jsonl(text: str) -> Dict[str, Any]:
    """Validate a ``repro.trace/v1`` JSONL export; returns the summary."""
    lines = [line for line in text.splitlines() if line]
    _require(len(lines) >= 2, "trace export: needs at least a header and a summary")
    try:
        records = [json.loads(line) for line in lines]
    except json.JSONDecodeError as exc:
        raise SchemaError(f"trace export: invalid JSON line: {exc}") from exc
    header, body, summary = records[0], records[1:-1], records[-1]
    _require_keys(header, ("type", "schema", "sample_every"), "trace header")
    _require(header["type"] == "header", "trace export: first line must be the header")
    _require(
        header["schema"] == TRACE_SCHEMA,
        f"trace export: schema {header.get('schema')!r} != {TRACE_SCHEMA!r}",
    )
    _require(
        summary.get("type") == "summary",
        "trace export: last line must be the summary",
    )
    _require(
        summary.get("records") == len(body),
        f"trace export: summary says {summary.get('records')} records, found {len(body)}",
    )
    for index, record in enumerate(body):
        kind = record.get("type")
        _require(
            kind in ("event", "span", "fault"),
            f"trace record {index}: bad type {kind!r}",
        )
        if kind == "event":
            _require_keys(record, ("ev", "ts"), f"trace record {index}")
        elif kind == "span":
            _require_keys(
                record,
                ("span", "binding", "slot", "start_ns", "end_ns", "outcome"),
                f"trace record {index}",
            )
            _require(
                record["end_ns"] >= record["start_ns"],
                f"trace record {index}: span ends before it starts",
            )
        else:
            _require_keys(record, ("kind", "ts", "duration_ns"), f"trace record {index}")
    return summary


def validate_chrome_trace(data: Any) -> Dict[str, Any]:
    """Validate a Chrome trace-event export; returns it for chaining."""
    _require_keys(data, ("traceEvents",), "chrome trace")
    for index, event in enumerate(data["traceEvents"]):
        _require_keys(event, ("ph", "pid", "tid", "name"), f"traceEvents[{index}]")
        phase = event["ph"]
        _require(
            phase in ("M", "X", "i"),
            f"traceEvents[{index}]: unsupported phase {phase!r}",
        )
        if phase == "X":
            _require_keys(event, ("ts", "dur"), f"traceEvents[{index}]")
            _require(
                event["dur"] >= 0, f"traceEvents[{index}]: negative duration"
            )
        elif phase == "i":
            _require_keys(event, ("ts",), f"traceEvents[{index}]")
    return data


def validate_profile(data: Any) -> Dict[str, Any]:
    """Validate a ``repro.profile/v1`` report; returns it for chaining."""
    _require_keys(
        data,
        ("schema", "total_wall_ns", "measured_fraction",
         "attributed_fraction", "stages"),
        "profile report",
    )
    _require(
        data["schema"] == PROFILE_SCHEMA,
        f"profile report: schema {data.get('schema')!r} != {PROFILE_SCHEMA!r}",
    )
    total_fraction = 0.0
    for index, stage in enumerate(data["stages"]):
        _require_keys(stage, ("name", "wall_ns", "events", "fraction"), f"stages[{index}]")
        _require(stage["wall_ns"] >= 0, f"stages[{index}]: negative wall time")
        total_fraction += stage["fraction"]
    _require(
        total_fraction <= 1.0 + 1e-9,
        f"profile report: stage fractions sum to {total_fraction} > 1",
    )
    return data


def validate_observation(observation: Any) -> None:
    """Validate every export an observation carries."""
    if observation.metrics is not None:
        validate_metrics(observation.metrics)
    if observation.trace_jsonl is not None:
        validate_trace_jsonl(observation.trace_jsonl)
    if observation.chrome_trace is not None:
        validate_chrome_trace(observation.chrome_trace)
    if observation.profile is not None:
        validate_profile(observation.profile)


# ---------------------------------------------------------------------- #
# repro.campaign/v1 — the `repro campaign serve` payloads
# ---------------------------------------------------------------------- #

CAMPAIGN_SCHEMA = "repro.campaign/v1"


def _require_campaign_envelope(data: Any, kind: str) -> None:
    _require_keys(data, ("schema", "type"), f"campaign {kind}")
    _require(
        data["schema"] == CAMPAIGN_SCHEMA,
        f"campaign {kind}: schema {data.get('schema')!r} != {CAMPAIGN_SCHEMA!r}",
    )
    _require(
        data["type"] == kind,
        f"campaign {kind}: type {data.get('type')!r} != {kind!r}",
    )


def validate_campaign_status(data: Any) -> Dict[str, Any]:
    """Validate a ``repro.campaign/v1`` `/status` payload."""
    # The cell-status vocabulary is the store's; imported here so that
    # validating a run's exports does not load the orchestrator.
    from repro.orchestrator.store import CELL_STATES, TERMINAL_STATUSES

    counts = (
        "cells_total", "cells_done",
        *(f"cells_{state}" for state in CELL_STATES),
        "retries_total", "workers_died", "violations_total",
    )
    _require_campaign_envelope(data, "status")
    _require_keys(
        data, ("state", *counts, "progress", "eta_s", "slices"), "campaign status"
    )
    _require(
        data["state"] in ("running", "finished", "idle"),
        f"campaign status: bad state {data['state']!r}",
    )
    for key in counts:
        _require(
            isinstance(data[key], int) and data[key] >= 0,
            f"campaign status: {key} must be a non-negative integer",
        )
    done = sum(data[f"cells_{status}"] for status in TERMINAL_STATUSES)
    _require(
        data["cells_done"] == done,
        "campaign status: cells_done "
        f"{data['cells_done']} != {'+'.join(TERMINAL_STATUSES)} {done}",
    )
    _require(
        data["cells_done"] <= data["cells_total"],
        "campaign status: cells_done exceeds cells_total",
    )
    _require(
        0.0 <= data["progress"] <= 1.0,
        f"campaign status: progress {data['progress']} outside [0, 1]",
    )
    _require(
        data["eta_s"] is None or data["eta_s"] >= 0,
        "campaign status: negative eta_s",
    )
    _require(isinstance(data["slices"], dict), "campaign status: slices must be an object")
    for axis, buckets in data["slices"].items():
        _require(
            isinstance(buckets, dict),
            f"campaign status: slices[{axis!r}] must be an object",
        )
        for value, bucket in buckets.items():
            _require_keys(
                bucket,
                ("cells", "ok", "failed", "violations", "mean_wall_s"),
                f"campaign status: slices[{axis!r}][{value!r}]",
            )
    return data


def validate_campaign_cells(data: Any) -> Dict[str, Any]:
    """Validate a ``repro.campaign/v1`` `/cells` payload."""
    from repro.orchestrator.store import LIVE_STATUSES

    _require_campaign_envelope(data, "cells")
    _require_keys(data, ("cells",), "campaign cells")
    _require(isinstance(data["cells"], list), "campaign cells: cells must be a list")
    seen = set()
    for index, cell in enumerate(data["cells"]):
        _require_keys(
            cell,
            ("spec_hash", "scenario", "params", "status", "wall_time_s", "violations"),
            f"campaign cells[{index}]",
        )
        _require(
            cell["status"] in LIVE_STATUSES,
            f"campaign cells[{index}]: bad status {cell['status']!r}",
        )
        _require(
            cell["spec_hash"] not in seen,
            f"campaign cells[{index}]: duplicate spec_hash {cell['spec_hash']!r}",
        )
        seen.add(cell["spec_hash"])
    return data


def validate_campaign_violations(data: Any) -> Dict[str, Any]:
    """Validate a ``repro.campaign/v1`` `/violations` payload."""
    _require_campaign_envelope(data, "violations")
    _require_keys(data, ("violations",), "campaign violations")
    for index, entry in enumerate(data["violations"]):
        _require_keys(
            entry,
            ("spec_hash", "scenario", "deployment", "check", "message"),
            f"campaign violations[{index}]",
        )
    return data


def validate_campaign_event(data: Any) -> Dict[str, Any]:
    """Validate one campaign event (a store event line, an `/events` NDJSON record)."""
    _require_keys(data, ("type", "ts"), "campaign event")
    _require(
        isinstance(data["type"], str) and data["type"],
        "campaign event: type must be a non-empty string",
    )
    _require(
        isinstance(data["ts"], (int, float)),
        "campaign event: ts must be a number",
    )
    if data["type"] in ("cell_started", "cell_finished", "cell_retried",
                        "heartbeat", "violation", "obs_summary"):
        _require_keys(data, ("spec_hash",), f"campaign event {data['type']!r}")
    return data


def validate_observation_summary(data: Any) -> Dict[str, Any]:
    """Validate one per-cell observability summary digest."""
    _require_keys(data, ("scenario", "deployment", "seed"), "observation summary")
    if "metrics" in data and data["metrics"] is not None:
        _require_keys(
            data["metrics"], ("samples_taken", "series", "counters"),
            "observation summary metrics",
        )
    if "profile" in data and data["profile"] is not None:
        _require_keys(
            data["profile"], ("total_wall_ns", "measured_fraction"),
            "observation summary profile",
        )
    return data
