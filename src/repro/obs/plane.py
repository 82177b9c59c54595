"""The observability plane: builds, wires and finalizes one run's instruments.

One :class:`ObservabilityPlane` instance serves one deployment run.
The experiment runner builds it (when ``ScenarioConfig.observe``
enables anything), attaches it to the freshly built topology before
traffic starts, arms the metric sampler alongside the traffic
generators, finalizes it into a :class:`RunObservation` after the
reports are computed, and detaches it in a ``finally``.  Attachment is
purely additive: it assigns the flight recorder's optional hook
attribute (``obs_recorder``), which every hot path guards with a single
``is not None`` branch, lets the phase profiler wrap its seams from
outside (:mod:`repro.obs.profiler`), and registers read-only sampling
callbacks — simulation behavior is untouched, which the integration
suite pins by comparing instrumented and uninstrumented reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs.config import ObserveSpec
from repro.obs.metrics import LATENCY_BUCKETS_US, MetricsRegistry
from repro.obs.profiler import PhaseProfiler
from repro.obs.trace import FlightRecorder


@dataclass
class RunObservation:
    """Everything the plane recorded about one deployment run.

    Exports are computed eagerly at finalization so the object is plain
    data end to end (strings and dicts) and survives pickling across
    campaign worker boundaries.
    """

    scenario: str
    deployment: str
    seed: int
    duration_ns: int
    metrics: Optional[Dict[str, Any]] = None
    trace_jsonl: Optional[str] = None
    chrome_trace: Optional[Dict[str, Any]] = None
    profile: Optional[Dict[str, Any]] = None

    def summary(self) -> Dict[str, Any]:
        """A small per-run digest (what campaign records carry)."""
        digest: Dict[str, Any] = {
            "scenario": self.scenario,
            "deployment": self.deployment,
            "seed": self.seed,
            "duration_ns": self.duration_ns,
        }
        if self.metrics is not None:
            digest["metrics"] = {
                "samples_taken": self.metrics["samples_taken"],
                "series": {
                    name: {
                        "kind": entry["kind"],
                        "points": len(entry["points"]),
                        "last": entry["points"][-1][1] if entry["points"] else None,
                        "dropped_samples": entry["dropped_samples"],
                    }
                    for name, entry in self.metrics["series"].items()
                },
                "counters": dict(self.metrics["counters"]),
            }
        if self.trace_jsonl is not None:
            summary_line = self.trace_jsonl.strip().rsplit("\n", 1)[-1]
            digest["trace"] = {"summary_line": summary_line}
        if self.profile is not None:
            digest["profile"] = {
                "total_wall_ns": self.profile["total_wall_ns"],
                "measured_fraction": round(self.profile["measured_fraction"], 4),
                "top_stage": (
                    self.profile["stages"][0]["name"]
                    if self.profile["stages"]
                    else None
                ),
            }
        return digest


class ObservabilityPlane:
    """Wires metrics, tracing and profiling through one testbed."""

    def __init__(self, spec: ObserveSpec, env: Any) -> None:
        self.spec = spec
        self.env = env
        self.registry: Optional[MetricsRegistry] = (
            MetricsRegistry(series_capacity=spec.series_capacity)
            if spec.metrics
            else None
        )
        self.recorder: Optional[FlightRecorder] = (
            FlightRecorder(
                sample_every=spec.trace_sample_every,
                max_events=spec.trace_max_events,
            )
            if spec.trace
            else None
        )
        self.profiler: Optional[PhaseProfiler] = (
            PhaseProfiler() if spec.profile else None
        )
        if self.recorder is not None:
            self.recorder.bind_clock(env)

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def attach(self, topology: Any, program: Any) -> None:
        """Install recorder hooks, wrap profiler seams, register series."""
        recorder = self.recorder
        if recorder is not None:
            topology.switch.obs_recorder = recorder
            for attachment in topology.attachments:
                attachment.pktgen.obs_recorder = recorder
                attachment.server.obs_recorder = recorder
                for link in (*attachment.gen_links, attachment.server_link):
                    link.set_observability(recorder)
            injector = topology.fault_injector
            if injector is not None:
                injector.obs_recorder = recorder
            # The PayloadPark split/merge paths emit park-span events; the
            # baseline program has neither attribute and is skipped.
            for path in getattr(program, "_split_paths", ()):
                path.obs_recorder = recorder
            for path in getattr(program, "_merge_paths", ()):
                path.obs_recorder = recorder
        if self.registry is not None:
            self._register_series(topology, program)
        # Last: nothing after it can raise before the runner's ``finally``.
        if self.profiler is not None:
            self.profiler.wrap(topology, program)

    def detach(self) -> None:
        """Restore every seam the profiler wrapped (safe to call twice)."""
        if self.profiler is not None:
            self.profiler.unwrap()

    def _register_series(self, topology: Any, program: Any) -> None:
        registry = self.registry
        for attachment in topology.attachments:
            name = attachment.binding.name
            pktgen = attachment.pktgen
            server = attachment.server
            registry.track(
                f"pktgen.{name}.delivered_useful_bytes",
                lambda g=pktgen: g.useful_bytes_received,
                kind="cumulative",
            )
            registry.track(
                f"pktgen.{name}.packets_sent",
                lambda g=pktgen: g.packets_sent,
                kind="cumulative",
            )
            registry.track(
                f"pktgen.{name}.packets_received",
                lambda g=pktgen: g.packets_received,
                kind="cumulative",
            )
            registry.track(
                f"server.{name}.processed_packets",
                lambda s=server: s.processed_packets,
                kind="cumulative",
            )
            registry.track(
                f"server.{name}.queue_occupancy",
                lambda s=server: s.queue_occupancy,
                kind="gauge",
            )
            pktgen.obs_latency_hist = registry.histogram(
                f"latency_us.{name}", LATENCY_BUCKETS_US
            )
            links = [(f"link.{name}.server", attachment.server_link)]
            links.extend(
                (f"link.{name}.gen{index}", link)
                for index, link in enumerate(attachment.gen_links)
            )
            for series_name, link in links:
                registry.track(
                    f"{series_name}.buffer_drops",
                    lambda l=link: l.buffer_drops(),
                    kind="cumulative",
                )
                registry.track(
                    f"{series_name}.fault_drops",
                    lambda l=link: l.fault_drops(),
                    kind="cumulative",
                )
            # NF cache efficiency (duck-typed: any NF exposing the
            # cache_lookups/cache_hits counter pair participates).
            for nf in server.model.chain:
                if hasattr(nf, "cache_lookups"):
                    registry.track(
                        f"nf.{name}.{nf.name}.cache_hit_ratio",
                        lambda n=nf: (
                            n.cache_hits / n.cache_lookups if n.cache_lookups else 0.0
                        ),
                        kind="gauge",
                    )
        for binding_name, table in getattr(program, "lookup_tables", {}).items():
            registry.track(
                f"switch.{binding_name}.sram_occupied_slots",
                lambda t=table: t.occupancy(),
                kind="gauge",
            )
            registry.track(
                f"switch.{binding_name}.sram_occupancy_fraction",
                lambda t=table: t.occupancy_fraction(),
                kind="gauge",
            )
            counters = program.counters_for(binding_name)
            for counter_name in ("splits", "merges", "evictions",
                                 "premature_evictions", "explicit_drops"):
                registry.track(
                    f"payloadpark.{binding_name}.{counter_name}",
                    lambda c=counters, f=counter_name: getattr(c, f),
                    kind="cumulative",
                )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self, duration_ns: int) -> None:
        """Arm the periodic metric sampler for the run window."""
        if self.registry is not None:
            self.registry.start_sampling(
                self.env,
                self.spec.sample_interval_ns,
                self.env.now + duration_ns,
            )

    def finalize(
        self, scenario: Any, deployment: str, duration_ns: int
    ) -> RunObservation:
        """Take the closing sample, close open spans, export everything."""
        if self.registry is not None:
            self.registry.sample(self.env.now)
        observation = RunObservation(
            scenario=scenario.name,
            deployment=deployment,
            seed=scenario.seed,
            duration_ns=duration_ns,
        )
        if self.registry is not None:
            observation.metrics = self.registry.export()
        if self.recorder is not None:
            self.recorder.finalize(self.env.now)
            observation.trace_jsonl = self.recorder.to_jsonl()
            observation.chrome_trace = self.recorder.to_chrome()
        if self.profiler is not None:
            observation.profile = self.profiler.report()
        return observation
