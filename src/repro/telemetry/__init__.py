"""Telemetry: latency recording, goodput accounting and run reports.

The paper's evaluation metrics are goodput (useful header bytes per
second, measured from the switch's perspective), average end-to-end
latency, PCIe bandwidth on the NF server, and a health criterion of a
packet drop rate below 0.1 %.  This subpackage provides the recorders
and report dataclasses the experiment runner fills in.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.telemetry.latency": ("LatencyRecorder",),
        "repro.telemetry.goodput": ("gbps", "goodput_gain_percent"),
        "repro.telemetry.report": ("DeploymentReport", "ComparisonReport", "HEALTHY_DROP_RATE"),
    },
)
