"""The observability plane: builds, wires and finalizes one run's instruments.

One :class:`ObservabilityPlane` instance serves one deployment run.
The experiment runner builds it (when ``ScenarioConfig.observe``
enables anything), attaches it to the freshly built topology before
traffic starts, arms the metric sampler alongside the traffic
generators, finalizes it into a :class:`RunObservation` after the
reports are computed, and detaches it in a ``finally``.  Attachment is
purely additive: the flight recorder and the phase profiler wrap
their seams — methods the engine looks up per call — on the run's
instances (:func:`seam_owners`), through one undo log
(:class:`SeamPatches`) that ``detach`` restores newest first, and the
metric series are read-only sampling callbacks.  No engine class is
touched and the engine carries no observability hook, so simulation
behavior is untouched, which the integration suite pins by comparing
instrumented and uninstrumented reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

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


def seam_owners(topology: Any, program: Any) -> Dict[str, Tuple[Any, ...]]:
    """Role -> the objects of one wired testbed that play it.

    ``payloadpark`` is the program when it parks payloads (it has lookup
    tables), else nobody.
    """
    attachments = topology.attachments
    injector = topology.fault_injector
    return {
        "switch": (topology.switch,),
        "program": (program,),
        "payloadpark": (program,) if getattr(program, "lookup_tables", None) else (),
        "server": tuple(attachment.server for attachment in attachments),
        "pktgen": tuple(attachment.pktgen for attachment in attachments),
        "link": tuple(
            link for a in attachments for link in (*a.gen_links, a.server_link)
        ),
        "fault_injector": () if injector is None else (injector,),
    }


class SeamPatches:
    """Per-instance seam replacements, undone in LIFO order."""

    __slots__ = ("_patched",)

    def __init__(self) -> None:
        #: ``(owner, method, original)`` per replacement; ``original``
        #: is None where the method came from the class.
        self._patched: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, name: str, wrap: Callable[[Any], Any]) -> None:
        """Replace *owner*'s *name* with ``wrap(method)`` until :meth:`restore`."""
        wrapper = wrap(getattr(owner, name))
        self._patched.append((owner, name, vars(owner).get(name)))
        setattr(owner, name, wrapper)

    def restore(self) -> None:
        """Undo every replacement, newest first (safe to call twice)."""
        while self._patched:
            owner, name, original = self._patched.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


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
        self.patches = SeamPatches()
        #: (histogram, generator latency recorder) per attachment: the
        #: latency histograms are filled from the samples at finalize.
        self._latencies: List[Tuple[Any, Any]] = []

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #

    def attach(self, topology: Any, program: Any) -> None:
        """Register series and wrap every instrument's seams (all or none)."""
        owners = seam_owners(topology, program)
        try:
            if self.registry is not None:
                self._register_series(topology, program)
            if self.recorder is not None:
                self.recorder.wrap(self.patches, owners)
            if self.profiler is not None:
                self.profiler.wrap(self.patches, owners)
        except BaseException:
            self.detach()
            raise

    def detach(self) -> None:
        """Restore every seam the instruments wrapped (safe to call twice)."""
        self.patches.restore()

    def _register_series(self, topology: Any, program: Any) -> None:
        registry = self.registry
        for attachment in topology.attachments:
            name = attachment.binding.name
            pktgen, server = attachment.pktgen, attachment.server
            for series_name, owner, attribute, kind in (
                ("pktgen.{}.delivered_useful_bytes", pktgen, "useful_bytes_received",
                 "cumulative"),
                ("pktgen.{}.packets_sent", pktgen, "packets_sent", "cumulative"),
                ("pktgen.{}.packets_received", pktgen, "packets_received", "cumulative"),
                ("server.{}.processed_packets", server, "processed_packets", "cumulative"),
                ("server.{}.queue_occupancy", server, "queue_occupancy", "gauge"),
            ):
                registry.track(
                    series_name.format(name), partial(getattr, owner, attribute), kind=kind
                )
            self._latencies.append(
                (registry.histogram(f"latency_us.{name}", LATENCY_BUCKETS_US), pktgen.latency)
            )
            links = [(f"link.{name}.server", attachment.server_link)]
            links.extend(
                (f"link.{name}.gen{index}", link)
                for index, link in enumerate(attachment.gen_links)
            )
            for series_name, link in links:
                registry.track(f"{series_name}.buffer_drops", link.buffer_drops, "cumulative")
                registry.track(f"{series_name}.fault_drops", link.fault_drops, "cumulative")
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
            registry.track(f"switch.{binding_name}.sram_occupied_slots", table.occupancy)
            registry.track(
                f"switch.{binding_name}.sram_occupancy_fraction", table.occupancy_fraction
            )
            counters = program.counters_for(binding_name)
            for counter_name in ("splits", "merges", "evictions",
                                 "premature_evictions", "explicit_drops"):
                registry.track(
                    f"payloadpark.{binding_name}.{counter_name}",
                    partial(getattr, counters, counter_name),
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
            for histogram, latency in self._latencies:
                for latency_ns in latency.samples_ns:
                    histogram.observe(latency_ns / 1_000.0)
            observation.metrics = self.registry.export()
        if self.recorder is not None:
            self.recorder.finalize()
            observation.trace_jsonl = self.recorder.to_jsonl()
            observation.chrome_trace = self.recorder.to_chrome()
        if self.profiler is not None:
            observation.profile = self.profiler.report()
        return observation
