"""Generative traffic models, time-varying schedules and PCAP replay.

This package is the layer between the traffic primitives
(:mod:`repro.traffic`) and the experiments: it composes arrival
processes, flow-population models, frame-size laws and offered-load
schedules into named workloads that the simulator, the campaign
orchestrator and the ``repro workload`` CLI all consume.
"""

from repro.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.errors": ("WorkloadSpecError",),
        "repro.workloads.arrivals": (
            "ArrivalModel",
            "IncastArrivals",
            "MMPPArrivals",
            "PoissonArrivals",
            "UniformArrivals",
        ),
        "repro.workloads.base": ("TrafficModel", "WorkloadSpec", "derived_rng"),
        "repro.workloads.flowmodels": (
            "ChurnFlows",
            "FlowModel",
            "HeavyTailFlows",
            "RoundRobinFlows",
        ),
        "repro.workloads.generative": ("GenerativePacketSource", "GenerativeWorkload"),
        "repro.workloads.registry": (
            "WORKLOAD_REGISTRY",
            "get_workload",
            "register_workload",
            "workload_names",
        ),
        "repro.workloads.replay": ("PcapReplayWorkload", "synthetic_enterprise_capture"),
        "repro.workloads.schedule": ("RatePhase", "TraceSchedule"),
        "repro.workloads.transport": (
            "ClosedLoopFlows",
            "ClosedLoopTransport",
            "ClosedLoopWorkload",
        ),
        "repro.workloads.stats": (
            "SMALL_FRAME_THRESHOLD_BYTES",
            "TracedPacket",
            "WorkloadSummary",
            "summarize",
        ),
    },
)
