"""Aggregation: group stored run records back into per-campaign tables.

The store holds one flat record per run in completion order; this module
re-aligns them with a campaign's grid (via spec hashes) and produces the
row dicts that :func:`repro.telemetry.report.render_table` prints for
``repro campaign report``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.orchestrator.spec import CampaignSpec, RunSpec

Record = Dict[str, Any]


def latest_ok_by_hash(records: Iterable[Record]) -> Dict[str, Record]:
    """Most recent successful record per spec hash (**ok-wins**).

    A later *failed* retry never shadows an earlier ``ok`` record — the
    same rule :meth:`repro.orchestrator.store.ResultStore.latest_by_hash`
    applies — so ``campaign report`` and ``campaign status`` agree about
    every cell.
    """
    latest: Dict[str, Record] = {}
    for record in records:
        if record.get("status") == "ok" and record.get("spec_hash"):
            latest[record["spec_hash"]] = record
    return latest


def latest_status_by_hash(records: Iterable[Record]) -> Dict[str, str]:
    """Authoritative status per spec hash, ok-wins (see above)."""
    status: Dict[str, str] = {}
    for record in records:
        spec_hash = record.get("spec_hash")
        if not spec_hash:
            continue
        if status.get(spec_hash) != "ok":
            status[spec_hash] = record.get("status", "ok")
    return status


def align(specs: Sequence[RunSpec], records: Iterable[Record]) -> List[Optional[Record]]:
    """Records in grid order: one entry per spec, ``None`` where unfinished."""
    by_hash = latest_ok_by_hash(records)
    return [by_hash.get(spec.spec_hash) for spec in specs]


def campaign_rows(
    campaign: CampaignSpec,
    records: Iterable[Record],
    metric_columns: Optional[Sequence[str]] = None,
    include_missing: bool = False,
) -> List[Dict[str, Any]]:
    """One table row per grid point: swept parameters + selected metrics.

    Without *metric_columns* every metric of the first finished run is
    included — useful interactively; pass an explicit list for stable
    reports.
    """
    specs = campaign.expand()
    records = list(records)
    aligned = align(specs, records)
    statuses = latest_status_by_hash(records)
    swept = sorted(campaign.grid)
    rows: List[Dict[str, Any]] = []
    for spec, record in zip(specs, aligned):
        if record is None and not include_missing:
            continue
        row: Dict[str, Any] = {axis: spec.params.get(axis) for axis in swept}
        if record is None:
            # Cells with no ok record report their real latest status
            # (error/exhausted), not a misleading "pending".
            row["status"] = statuses.get(spec.spec_hash, "pending")
            rows.append(row)
            continue
        metrics = record.get("metrics", {})
        columns = metric_columns if metric_columns is not None else sorted(metrics)
        for column in columns:
            row[column] = _round(metrics.get(column))
        rows.append(row)
    return rows


def group_rows(
    rows: Iterable[Mapping[str, Any]],
    by: Sequence[str],
    reductions: Mapping[str, str],
) -> List[Dict[str, Any]]:
    """Group rows on the *by* columns and reduce the named metric columns.

    ``reductions`` maps column → one of ``mean``, ``sum``, ``min``,
    ``max`` or ``count``.  Group order follows first appearance.
    """
    reducers = {
        "mean": lambda values: sum(values) / len(values),
        "sum": sum,
        "min": min,
        "max": max,
        "count": len,
    }
    for column, how in reductions.items():
        if how not in reducers:
            raise ValueError(f"unknown reduction {how!r} for column {column!r}")

    groups: Dict[tuple, List[Mapping[str, Any]]] = {}
    for row in rows:
        key = tuple(row.get(column) for column in by)
        groups.setdefault(key, []).append(row)

    result = []
    for key, members in groups.items():
        out: Dict[str, Any] = dict(zip(by, key))
        for column, how in reductions.items():
            values = [row[column] for row in members if row.get(column) is not None]
            out[column] = reducers[how](values) if values else None
        result.append(out)
    return result


def _round(value: Any, digits: int = 4) -> Any:
    if isinstance(value, float):
        return round(value, digits)
    return value
