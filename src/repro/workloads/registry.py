"""The named-workload registry.

Every workload here is runnable three ways with zero setup: run
standalone through the ``workload`` scenario
(``repro.experiments.scenarios.workload_scenario``), swept by campaigns
(``grid: {workload: [...]}``), and previewed with ``repro workload
preview <name>``, which runs that scenario's generator 0 alone.

Builders, not instances, are registered: each lookup constructs a fresh
spec so stateful pieces (replay streams, flow samplers) never leak
between runs, and construction cost is only paid for workloads actually
used.  Import cost too: each builder imports the models it constructs,
so looking a name up loads only that workload's implementation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List

from repro.errors import WorkloadSpecError

if TYPE_CHECKING:
    from repro.workloads.base import WorkloadSpec

#: Workload name → zero-argument builder returning a fresh spec.
WORKLOAD_REGISTRY: Dict[str, Callable[[], WorkloadSpec]] = {}


def register_workload(name: str, builder: Callable[[], WorkloadSpec]) -> None:
    """Add *builder* under *name*; duplicate names are an error."""
    if name in WORKLOAD_REGISTRY:
        raise WorkloadSpecError(f"workload {name!r} is already registered")
    WORKLOAD_REGISTRY[name] = builder


def workload_names() -> List[str]:
    """Sorted registered workload names."""
    return sorted(WORKLOAD_REGISTRY)


def get_workload(name: str) -> WorkloadSpec:
    """Build a fresh spec for *name* (``ValueError`` on unknown names)."""
    builder = WORKLOAD_REGISTRY.get(name)
    if builder is None:
        raise WorkloadSpecError(
            f"unknown workload {name!r}; expected one of {workload_names()}"
        )
    return builder()


# ---------------------------------------------------------------------- #
# Built-in workloads
# ---------------------------------------------------------------------- #


def _enterprise_poisson() -> WorkloadSpec:
    from repro.traffic.distributions import enterprise_datacenter_distribution
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.flowmodels import RoundRobinFlows
    from repro.workloads.generative import GenerativeWorkload

    return GenerativeWorkload(
        name="enterprise-poisson",
        description="Benson enterprise size mix, Poisson arrivals, 4096 flows",
        sizes=enterprise_datacenter_distribution(),
        flows=RoundRobinFlows(flow_count=4096),
        arrivals=PoissonArrivals(),
        rate_gbps=8.0,
    )


def _bursty_mmpp() -> WorkloadSpec:
    from repro.traffic.distributions import enterprise_datacenter_distribution
    from repro.workloads.arrivals import MMPPArrivals
    from repro.workloads.flowmodels import RoundRobinFlows
    from repro.workloads.generative import GenerativeWorkload

    return GenerativeWorkload(
        name="bursty-mmpp",
        description="on/off MMPP bursts (3x rate in bursts) over the enterprise mix",
        sizes=enterprise_datacenter_distribution(),
        flows=RoundRobinFlows(flow_count=4096),
        arrivals=MMPPArrivals(on_fraction=0.25, burst_factor=3.0, mean_residence_events=64),
        rate_gbps=8.0,
    )


def _incast_sync() -> WorkloadSpec:
    from repro.traffic.distributions import EmpiricalDistribution
    from repro.workloads.arrivals import IncastArrivals
    from repro.workloads.flowmodels import RoundRobinFlows
    from repro.workloads.generative import GenerativeWorkload

    # Small response frames bunched by fan-in synchronization: the worst
    # case for switch egress buffers and a torture test for parking-slot
    # occupancy spikes.
    sizes = EmpiricalDistribution([(64, 0.20), (128, 0.25), (256, 0.35), (512, 0.20)])
    return GenerativeWorkload(
        name="incast-sync",
        description="32-way fan-in bursts of small response frames",
        sizes=sizes,
        flows=RoundRobinFlows(flow_count=32 * 16),
        arrivals=IncastArrivals(fan_in=32, duty=0.05),
        rate_gbps=6.0,
        burst_size=4,
    )


def _heavy_tail() -> WorkloadSpec:
    from repro.traffic.distributions import ParetoSizeDistribution
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.flowmodels import HeavyTailFlows
    from repro.workloads.generative import GenerativeWorkload

    return GenerativeWorkload(
        name="heavy-tail",
        description="Pareto frame sizes; 5% elephant flows carry 80% of packets",
        sizes=ParetoSizeDistribution(shape=1.3, scale=120.0),
        flows=HeavyTailFlows(flow_count=4096, elephant_fraction=0.05, elephant_weight=0.80),
        arrivals=PoissonArrivals(),
        rate_gbps=8.0,
    )


def _flood_churn() -> WorkloadSpec:
    from repro.traffic.distributions import FixedSizeDistribution
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.flowmodels import ChurnFlows
    from repro.workloads.generative import GenerativeWorkload

    # SYN-flood shape: minimum-size frames, every packet a fresh 5-tuple.
    # No payload is ever parkable (64B frames), and flow churn maximizes
    # parking-slot turnover pressure on the switch tables.
    return GenerativeWorkload(
        name="flood-churn",
        description="64B-frame flood, fresh 5-tuple per packet (max slot churn)",
        sizes=FixedSizeDistribution(64),
        flows=ChurnFlows(packets_per_flow=1),
        arrivals=PoissonArrivals(),
        rate_gbps=4.0,
    )


def _rate_ramp() -> WorkloadSpec:
    from repro.traffic.distributions import enterprise_datacenter_distribution
    from repro.workloads.flowmodels import RoundRobinFlows
    from repro.workloads.generative import GenerativeWorkload
    from repro.workloads.schedule import TraceSchedule

    return GenerativeWorkload(
        name="rate-ramp",
        description="enterprise mix ramping 2 -> 12 Gbps over 4 ms",
        sizes=enterprise_datacenter_distribution(),
        flows=RoundRobinFlows(flow_count=4096),
        schedule=TraceSchedule.ramp(2.0, 12.0, duration_ns=4_000_000),
    )


def _diurnal_steps() -> WorkloadSpec:
    from repro.traffic.distributions import enterprise_datacenter_distribution
    from repro.workloads.arrivals import PoissonArrivals
    from repro.workloads.flowmodels import RoundRobinFlows
    from repro.workloads.generative import GenerativeWorkload
    from repro.workloads.schedule import TraceSchedule

    return GenerativeWorkload(
        name="diurnal",
        description="repeating day/night cycle between 3 and 11 Gbps (1 ms period)",
        sizes=enterprise_datacenter_distribution(),
        flows=RoundRobinFlows(flow_count=4096),
        arrivals=PoissonArrivals(),
        schedule=TraceSchedule.diurnal(3.0, 11.0, period_ns=1_000_000, segments=8),
    )


def _pcap_replay() -> WorkloadSpec:
    from repro.workloads.replay import PcapReplayWorkload

    return PcapReplayWorkload.synthetic(packet_count=512, seed=20, rate_gbps=8.0)


def _incast_collapse() -> WorkloadSpec:
    from repro.workloads.transport import ClosedLoopFlows, ClosedLoopWorkload

    # The TCP-incast pathology: many synchronized senders slow-start
    # into one egress buffer at once.  The 1 ms minimum RTO is enormous
    # against the microsecond base RTT, so each synchronized loss epoch
    # stalls its flows for ~1000 RTTs — the goodput collapse that only a
    # closed loop can exhibit (the open-loop `incast-sync` twin keeps
    # blasting through the same drops).
    return ClosedLoopWorkload(
        name="incast-collapse",
        description="64-way synchronized TCP incast into one egress buffer",
        flows=ClosedLoopFlows(
            flow_count=64,
            segments_per_transfer=24,
            mss_bytes=1068,
            initial_cwnd_segments=2,
            initial_ssthresh_segments=64,
            min_rto_ns=1_000_000,
            sync_epochs=True,
            start_jitter_ns=2_000,
        ),
        rate_gbps=6.0,
    )


def _rpc_fanout() -> WorkloadSpec:
    from repro.workloads.transport import ClosedLoopFlows, ClosedLoopWorkload

    # Request/response RPC shape: modest fan-out, short responses,
    # independent (unsynchronized) flow restarts with think time — the
    # regime where parking-induced RTT inflation shows up as spurious
    # RTOs rather than buffer collapse.
    return ClosedLoopWorkload(
        name="rpc-fanout",
        description="16-way RPC fan-out, short responses, independent restarts",
        flows=ClosedLoopFlows(
            flow_count=16,
            segments_per_transfer=8,
            mss_bytes=512,
            initial_cwnd_segments=4,
            initial_ssthresh_segments=32,
            min_rto_ns=500_000,
            sync_epochs=False,
            think_time_ns=50_000,
            start_jitter_ns=4_000,
        ),
        rate_gbps=4.0,
    )


register_workload("enterprise-poisson", _enterprise_poisson)
register_workload("bursty-mmpp", _bursty_mmpp)
register_workload("incast-sync", _incast_sync)
register_workload("heavy-tail", _heavy_tail)
register_workload("flood-churn", _flood_churn)
register_workload("rate-ramp", _rate_ramp)
register_workload("diurnal", _diurnal_steps)
register_workload("pcap-replay", _pcap_replay)
register_workload("incast-collapse", _incast_collapse)
register_workload("rpc-fanout", _rpc_fanout)
