"""Aggregation: the store's index laid back over a campaign's grid.

Which record speaks for a cell is the store's decision
(:meth:`~repro.orchestrator.store.ResultStore.latest_by_hash`); this
module only walks the grid in order and turns those records into the
row dicts :func:`repro.telemetry.report.render_table` prints for
``repro campaign report``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.orchestrator.spec import CampaignSpec
from repro.orchestrator.store import status_of


def campaign_rows(
    campaign: CampaignSpec,
    latest: Mapping[str, Mapping[str, Any]],
    metric_columns: Optional[Sequence[str]] = None,
    include_missing: bool = False,
) -> List[Dict[str, Any]]:
    """One table row per grid point: swept parameters + selected metrics.

    *latest* is the store's ``latest_by_hash()``.  Cells that are not
    ``ok`` are left out unless *include_missing*, which lists them with
    their real status (``error``/``exhausted``/…, ``pending`` for a cell
    with no record).  Without *metric_columns* every metric of the run
    is included — useful interactively; pass an explicit list for stable
    reports.
    """
    swept = sorted(campaign.grid)
    rows: List[Dict[str, Any]] = []
    for spec in campaign.expand():
        record = latest.get(spec.spec_hash)
        status = status_of(record) if record is not None else "pending"
        row: Dict[str, Any] = {axis: spec.params.get(axis) for axis in swept}
        if status == "ok":
            metrics = record.get("metrics", {})
            columns = metric_columns if metric_columns is not None else sorted(metrics)
            for column in columns:
                value = metrics.get(column)
                row[column] = round(value, 4) if isinstance(value, float) else value
        elif include_missing:
            row["status"] = status
        else:
            continue
        rows.append(row)
    return rows
