"""Run reports: per-deployment metrics and PayloadPark-vs-baseline comparisons."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields
from functools import reduce
from typing import Dict, List, Sequence

from repro.telemetry.goodput import goodput_gain_percent, savings_percent

#: The paper considers the system healthy while the drop rate stays below 0.1 %.
HEALTHY_DROP_RATE = 0.001


def _sum(values):
    """Left-to-right ``+`` (the order decides the float result); dicts add per key."""
    if isinstance(values[0], dict):
        keys = dict.fromkeys(key for value in values for key in value)
        return {key: _sum([value.get(key, 0) for value in values]) for key in keys}
    return reduce(operator.add, values)


#: How :func:`fold_reports` combines one field's per-server values.
FOLD_RULES = {
    "first": operator.itemgetter(0),
    "sum": _sum,
    "max": max,
    "mean": lambda values: sum(values) / len(values),
}


def _folded(rule: str, **kwargs):
    """A :class:`DeploymentReport` field combined across servers by *rule*."""
    return field(metadata={"fold": rule}, **kwargs)


@dataclass
class DeploymentReport:
    """Metrics of one deployment (PayloadPark or baseline) at one operating point.

    Either one NF server's view or, from :func:`fold_reports`, the whole
    chip's; each field declares how it folds.
    """

    deployment: str = _folded("first")
    send_rate_gbps: float = _folded("first")
    duration_ns: int = _folded("first")
    packets_sent: int = _folded("sum", default=0)
    packets_delivered: int = _folded("sum", default=0)
    packets_dropped: int = _folded("sum", default=0)
    goodput_to_nf_gbps: float = _folded("sum", default=0.0)
    delivered_goodput_gbps: float = _folded("sum", default=0.0)
    offered_gbps: float = _folded("sum", default=0.0)
    avg_latency_us: float = _folded("mean", default=0.0)
    p99_latency_us: float = _folded("max", default=0.0)
    max_latency_us: float = _folded("max", default=0.0)
    jitter_us: float = _folded("max", default=0.0)
    pcie_gbps: float = _folded("sum", default=0.0)
    nf_packets_processed: int = _folded("sum", default=0)
    premature_evictions: int = _folded("sum", default=0)
    evictions: int = _folded("sum", default=0)
    splits: int = _folded("sum", default=0)
    merges: int = _folded("sum", default=0)
    explicit_drops: int = _folded("sum", default=0)
    split_disabled: int = _folded("sum", default=0)
    #: Highest egress-queue occupancy (bytes) seen on any of the run's
    #: links — the figure-level queue-pressure peak of the deployment.
    peak_queue_bytes: int = _folded("max", default=0)
    #: Closed-loop transport accounting (all zero for open-loop runs):
    #: second-and-later copies on the wire, deliveries of already-seen
    #: sequence numbers, and the raw delivered-byte rate *including*
    #: duplicates.  ``delivered_goodput_gbps`` stays first-copy-only, so
    #: ``throughput - goodput`` is exactly the duplicated traffic.
    retransmitted_packets: int = _folded("sum", default=0)
    retransmitted_bytes: int = _folded("sum", default=0)
    duplicate_packets: int = _folded("sum", default=0)
    throughput_gbps: float = _folded("sum", default=0.0)
    drop_breakdown: Dict[str, int] = _folded("sum", default_factory=dict)
    #: The per-server reports a folded report was built from (empty on a
    #: per-server report); not part of the report's value.
    servers: List["DeploymentReport"] = field(
        default_factory=list, init=False, repr=False, compare=False
    )

    @property
    def drop_rate(self) -> float:
        """Fraction of offered packets that never made it back."""
        if self.packets_sent <= 0:
            return 0.0
        return self.packets_dropped / self.packets_sent

    @property
    def healthy(self) -> bool:
        """True while the drop rate stays under the paper's 0.1 % threshold."""
        return self.drop_rate < HEALTHY_DROP_RATE

    def as_row(self) -> Dict[str, float]:
        """Flat dict printed as one row of a result table."""
        return {
            "deployment": self.deployment,
            "send_rate_gbps": round(self.send_rate_gbps, 3),
            "goodput_gbps": round(self.goodput_to_nf_gbps, 4),
            "delivered_goodput_gbps": round(self.delivered_goodput_gbps, 4),
            "avg_latency_us": round(self.avg_latency_us, 2),
            "p99_latency_us": round(self.p99_latency_us, 2),
            "drop_rate": round(self.drop_rate, 5),
            "pcie_gbps": round(self.pcie_gbps, 3),
            "premature_evictions": self.premature_evictions,
            "healthy": self.healthy,
        }


def fold_reports(reports: Sequence[DeploymentReport]) -> DeploymentReport:
    """Fold per-server reports into one chip-level report.

    Each field combines by the rule it declares, so the fold of a single
    report equals that report.
    """
    if not reports:
        raise ValueError("cannot fold an empty report list")
    total = DeploymentReport(
        **{
            spec.name: FOLD_RULES[spec.metadata["fold"]](
                [getattr(report, spec.name) for report in reports]
            )
            for spec in fields(DeploymentReport)
            if spec.init
        }
    )
    total.servers = list(reports)
    return total


#: Comparison column → (attribute path on the :class:`ComparisonReport`,
#: decimal places; ``None`` keeps the value as is).  The one place a
#: column's source and rounding are written down: the figure declarations
#: select from here by name.
COMPARISON_COLUMNS = {
    "send_rate_gbps": ("baseline.send_rate_gbps", 3),
    "baseline_goodput_gbps": ("baseline.goodput_to_nf_gbps", 4),
    "payloadpark_goodput_gbps": ("payloadpark.goodput_to_nf_gbps", 4),
    "goodput_gain_percent": ("goodput_gain_percent", 2),
    "baseline_latency_us": ("baseline.avg_latency_us", 2),
    "payloadpark_latency_us": ("payloadpark.avg_latency_us", 2),
    "latency_delta_us": ("latency_delta_us", 2),
    "latency_win_percent": ("latency_win_percent", 2),
    "baseline_pcie_gbps": ("baseline.pcie_gbps", 3),
    "payloadpark_pcie_gbps": ("payloadpark.pcie_gbps", 3),
    "pcie_savings_percent": ("pcie_savings_percent", 2),
    "baseline_healthy": ("baseline.healthy", None),
    "payloadpark_healthy": ("payloadpark.healthy", None),
}


@dataclass
class ComparisonReport:
    """PayloadPark vs. baseline at the same operating point."""

    baseline: DeploymentReport
    payloadpark: DeploymentReport

    @property
    def goodput_gain_percent(self) -> float:
        """Goodput improvement of PayloadPark over the baseline."""
        return goodput_gain_percent(
            self.payloadpark.goodput_to_nf_gbps, self.baseline.goodput_to_nf_gbps
        )

    @property
    def delivered_goodput_gain_percent(self) -> float:
        """Gain measured on packets delivered back to the traffic generator."""
        return goodput_gain_percent(
            self.payloadpark.delivered_goodput_gbps, self.baseline.delivered_goodput_gbps
        )

    @property
    def pcie_savings_percent(self) -> float:
        """PCIe bandwidth saved by PayloadPark."""
        return savings_percent(self.baseline.pcie_gbps, self.payloadpark.pcie_gbps)

    @property
    def latency_delta_us(self) -> float:
        """PayloadPark latency minus baseline latency (negative = faster)."""
        return self.payloadpark.avg_latency_us - self.baseline.avg_latency_us

    @property
    def latency_win_percent(self) -> float:
        """Relative latency reduction of PayloadPark (positive = faster)."""
        if self.baseline.avg_latency_us <= 0:
            return 0.0
        return -self.latency_delta_us / self.baseline.avg_latency_us * 100.0

    def column(self, name: str):
        """One :data:`COMPARISON_COLUMNS` value, rounded as every table prints it."""
        path, digits = COMPARISON_COLUMNS[name]
        value = operator.attrgetter(path)(self)
        return value if digits is None else round(value, digits)

    def as_row(self, *columns: str) -> Dict[str, float]:
        """Flat comparison row: the named columns, or all of them."""
        return {name: self.column(name) for name in columns or COMPARISON_COLUMNS}


def render_table(rows, columns=None) -> str:
    """Render a list of dict rows as an aligned text table.

    ``repro run`` and the example scripts print these tables, so each
    regenerates its figure/table of the paper in textual form.
    """
    rows = list(rows)
    if not rows:
        return "(no data)"
    if columns is None:
        columns = list(rows[0].keys())
    widths = {column: len(str(column)) for column in columns}
    for row in rows:
        for column in columns:
            widths[column] = max(widths[column], len(str(row.get(column, ""))))
    header = " | ".join(str(column).ljust(widths[column]) for column in columns)
    separator = "-+-".join("-" * widths[column] for column in columns)
    lines = [header, separator]
    for row in rows:
        lines.append(
            " | ".join(str(row.get(column, "")).ljust(widths[column]) for column in columns)
        )
    return "\n".join(lines)
