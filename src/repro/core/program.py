"""Complete switch programs: PayloadPark and the baseline.

A *switch program* owns a :class:`~repro.switchsim.asic.TofinoAsic`,
installs its tables and register arrays into the pipes that serve its
NF-server bindings, and processes packets arriving on front-panel ports.
Two programs are provided:

* :class:`PayloadParkProgram` — the paper's contribution: Split/Merge
  with payload parking, eviction, Explicit Drops and per-binding memory
  slicing; and
* :class:`BaselineProgram` — plain L2 forwarding between the traffic
  ports and the NF server, the non-PayloadPark deployment used as the
  comparison point throughout §6.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.counters import CounterBank, PayloadParkCounters
from repro.core.l2fwd import L2ForwardingTable
from repro.core.lookup_table import LookupTable
from repro.core.merge import MergePath
from repro.core.split import SplitPath
from repro.core.tagger import PacketTagger
from repro.packet.ethernet import MacAddress
from repro.packet.packet import Packet
from repro.switchsim.asic import AsicConfig, TofinoAsic
from repro.switchsim.context import PipelinePacket
from repro.switchsim.mat import MatchActionTable
from repro.switchsim.pipe import Pipe
from repro.switchsim.pipeline import PortPlan
from repro.switchsim.resources import ResourceReport


class SwitchProgram:
    """Common behaviour of the PayloadPark and baseline programs."""

    #: True when every table the program installs is stateless, i.e. a
    #: packet's pipeline outcome depends only on its ingress port and
    #: destination MAC.  Such programs may memoize whole-pipe outcomes in
    #: the fast path (see :meth:`process`); stateful programs (PayloadPark)
    #: run a port plan instead.
    decision_cacheable = False

    def __init__(
        self,
        bindings: List[NfServerBinding],
        asic: Optional[TofinoAsic] = None,
        asic_config: Optional[AsicConfig] = None,
    ) -> None:
        if not bindings:
            raise ValueError("a switch program needs at least one NF-server binding")
        self.asic = asic or TofinoAsic(asic_config)
        self.bindings = list(bindings)
        self.l2 = L2ForwardingTable()
        self.fast_path = False
        #: (ingress_port, dst MAC) -> plan replaying the recorded pipe
        #: outcome; only populated for decision-cacheable programs with
        #: the fast path enabled.
        self._decision_cache: Dict[tuple, PortPlan] = {}
        #: ingress_port -> compiled plan; only populated for programs that
        #: are not decision-cacheable, with the fast path enabled.
        self._plans: Dict[int, PortPlan] = {}
        self._validate_bindings()

    # ------------------------------------------------------------------ #
    # Fast path control
    # ------------------------------------------------------------------ #

    def enable_fast_path(self, enabled: bool = True) -> None:
        """Switch the program to its default engine.

        The fast path is behaviour-preserving: port plans (PayloadPark)
        and whole-pipe decision caching (stateless programs) reproduce
        the reference stage walk's packet outcomes and counters exactly
        — the golden-figure suite runs every experiment in both modes
        and diffs the tables.
        """
        if enabled and self.decision_cacheable:
            stateful = [
                table.name
                for pipe in self.asic.pipes
                for table in pipe.pipeline.tables()
                if table.stateful
            ]
            if stateful:
                raise ValueError(
                    f"{type(self).__name__} declares decision_cacheable but installs "
                    f"stateful tables: {stateful}"
                )
        self.fast_path = enabled
        self.invalidate_fast_path()

    def invalidate_fast_path(self) -> None:
        """Drop memoized pipeline outcomes and compiled port plans.

        Control-plane mutations that change forwarding behaviour (L2
        entries, table installs, state resets) call this so the next
        packet re-walks the pipeline; it is also the explicit hook for
        external controllers that mutate program state directly.
        """
        for plans in (self._decision_cache, self._plans):
            for plan in plans.values():
                plan.retire()
            plans.clear()

    # ------------------------------------------------------------------ #
    # Binding / port helpers
    # ------------------------------------------------------------------ #

    def _validate_bindings(self) -> None:
        seen_ports: Dict[int, str] = {}
        for binding in self.bindings:
            ports = list(binding.ingress_ports) + [binding.nf_port]
            for port in ports:
                self.asic.pipe_for_port(port)  # raises on out-of-range ports
                if port in seen_ports:
                    raise ValueError(
                        f"port {port} is used by both {seen_ports[port]!r} and "
                        f"{binding.name!r}"
                    )
                seen_ports[port] = binding.name
            pipe = self.asic.pipe_for_port(binding.nf_port)
            for port in binding.ingress_ports:
                if self.asic.pipe_for_port(port) is not pipe:
                    raise ValueError(
                        f"binding {binding.name!r}: ingress port {port} and NF port "
                        f"{binding.nf_port} must share a pipe (pipes do not share "
                        f"stateful memory)"
                    )

    def bindings_in_pipe(self, pipe: Pipe) -> List[NfServerBinding]:
        """Bindings whose ports live in *pipe*."""
        return [
            binding
            for binding in self.bindings
            if self.asic.pipe_for_port(binding.nf_port) is pipe
        ]

    def add_l2_entry(self, mac: str, port: int) -> None:
        """Install a destination-MAC forwarding entry (control plane)."""
        self.l2.add_entry(MacAddress.from_string(mac), port)
        self.invalidate_fast_path()

    def _egress_for(self, ctx: PipelinePacket, binding: NfServerBinding) -> int:
        """Egress decision for a packet heading away from the NF server."""
        port = self.l2.lookup(ctx.packet.eth.dst, default=None)
        if port is not None:
            return port
        return binding.default_egress_port

    # ------------------------------------------------------------------ #
    # Forwarding tables shared by both programs
    # ------------------------------------------------------------------ #

    def _install_forwarding(
        self, pipe: Pipe, binding: NfServerBinding
    ) -> Tuple[MatchActionTable, MatchActionTable]:
        """Install and return the binding's to-NF and from-NF tables."""
        last_stage = pipe.pipeline.stage_count - 1
        ingress_ports = frozenset(binding.ingress_ports)

        def match_from_traffic(ctx: PipelinePacket) -> bool:
            return ctx.ingress_port in ingress_ports

        def forward_to_nf(ctx: PipelinePacket) -> None:
            ctx.forward_to(binding.nf_port)

        def match_from_nf(ctx: PipelinePacket) -> bool:
            return ctx.ingress_port == binding.nf_port

        def forward_from_nf(ctx: PipelinePacket) -> None:
            ctx.forward_to(self._egress_for(ctx, binding))

        to_nf = pipe.pipeline.stage(last_stage).add_table(
            MatchActionTable(
                name=f"{binding.name}.l2_fwd_to_nf",
                match=match_from_traffic,
                action=forward_to_nf,
                match_bits=16,
                vliw_slots=1,
                ingress_ports=ingress_ports,
                stateful=False,
            )
        )
        from_nf = pipe.pipeline.stage(last_stage).add_table(
            MatchActionTable(
                name=f"{binding.name}.l2_fwd_from_nf",
                match=match_from_nf,
                action=forward_from_nf,
                match_bits=64,
                entries=64,
                vliw_slots=1,
                ingress_ports=frozenset((binding.nf_port,)),
                stateful=False,
            )
        )
        return to_nf, from_nf

    # ------------------------------------------------------------------ #
    # Packet processing
    # ------------------------------------------------------------------ #

    def process(self, packet: Packet, ingress_port: int) -> PipelinePacket:
        """Run *packet* through the pipe owning *ingress_port*.

        With the fast path off this is the reference stage walk.  With
        it on, decision-cacheable programs memoize the pipe outcome per
        ``(ingress_port, dst MAC)`` header-shape signature: repeated
        identical shapes skip the per-stage walk entirely while
        replaying the same per-table hit/miss accounting the walk would
        have produced.  Other programs run the ingress port's plan (see
        :meth:`_compile_plan`).  Both are invalidated by pipeline
        version bumps (table installs) and :meth:`invalidate_fast_path`.
        """
        if not self.fast_path:
            return self.asic.process(packet, ingress_port)
        if self.decision_cacheable:
            signature = (ingress_port, packet.eth.dst.value)
            cached = self._decision_cache.get(signature)
            if cached is not None:
                if cached.version == cached.pipeline.version:
                    return cached.run(packet, ingress_port)
                del self._decision_cache[signature]  # stale pipeline version
            ctx, entry = _record_decision(self.asic, packet, ingress_port)
            if entry is not None:
                self._decision_cache[signature] = entry
            return ctx
        plan = self._plans.get(ingress_port)
        if plan is None or plan.version != plan.pipeline.version:
            plan = self._plans[ingress_port] = self._compile_plan(ingress_port)
        return plan.run(packet, ingress_port)

    def _compile_plan(self, ingress_port: int) -> PortPlan:
        """The plan for packets arriving on *ingress_port*.

        A program that can fuse its tables for the port overrides this;
        the plan every program can offer is the stage walk itself.
        """
        pipeline = self.asic.pipe_for_port(ingress_port).pipeline
        return PortPlan(pipeline, self.asic.process, [], [])

    def extra_latency_ns(self, ctx: PipelinePacket) -> int:
        """Program-specific latency beyond the base pipeline latency."""
        pipe = self.asic.pipe_for_port(ctx.ingress_port)
        return pipe.recirculation_latency_ns(ctx)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def resource_report(self, pipe_index: int = 0) -> ResourceReport:
        """Table-1-style resource utilization of one pipe."""
        return self.asic.pipes[pipe_index].resource_report()


class BaselineProgram(SwitchProgram):
    """The non-PayloadPark deployment: L2 forwarding only (§6.1).

    Traffic-generator ports forward to the NF server; packets coming back
    from the NF server are forwarded by destination MAC (falling back to
    the binding's default egress port).

    Every table is stateless, so the fast path may memoize whole-pipe
    outcomes per (ingress port, dst MAC) header shape.
    """

    decision_cacheable = True

    def __init__(
        self,
        bindings: List[NfServerBinding],
        asic: Optional[TofinoAsic] = None,
        asic_config: Optional[AsicConfig] = None,
    ) -> None:
        super().__init__(bindings, asic=asic, asic_config=asic_config)
        self.name = "baseline"
        for binding in self.bindings:
            pipe = self.asic.pipe_for_port(binding.nf_port)
            self._declare_phv(pipe)
            self._install_forwarding(pipe, binding)

    @staticmethod
    def _declare_phv(pipe: Pipe) -> None:
        pipe.phv.declare("ethernet", 112)
        pipe.phv.declare("ipv4", 160)
        pipe.phv.declare("udp", 64)
        pipe.phv.declare("bridge_metadata", 16)


class PayloadParkProgram(SwitchProgram):
    """The PayloadPark dataplane program (Algorithms 1 and 2).

    Parameters
    ----------
    config:
        Deployment parameters (parked bytes, expiry threshold, reserved
        memory fraction, …).  ``config.bindings`` may list the NF-server
        bindings, or they can be passed separately via *bindings*.
    bindings:
        Overrides ``config.bindings`` when given.
    asic / asic_config:
        An existing simulated ASIC to install into, or the configuration
        for a fresh one.
    """

    def __init__(
        self,
        config: PayloadParkConfig,
        bindings: Optional[List[NfServerBinding]] = None,
        asic: Optional[TofinoAsic] = None,
        asic_config: Optional[AsicConfig] = None,
    ) -> None:
        resolved_bindings = list(bindings) if bindings is not None else list(config.bindings)
        super().__init__(resolved_bindings, asic=asic, asic_config=asic_config)
        self.name = "payloadpark"
        self.config = config
        self.counters = CounterBank()
        self.lookup_tables: Dict[str, LookupTable] = {}
        self.taggers: Dict[str, PacketTagger] = {}
        self._merge_paths: List[MergePath] = []
        self._split_paths: List[SplitPath] = []
        #: ingress port -> the path serving it: Split for a traffic port,
        #: Merge for an NF port.
        self._split_of_port: Dict[int, SplitPath] = {}
        self._merge_of_port: Dict[int, MergePath] = {}
        #: binding name -> its (to-NF, from-NF) forwarding tables.
        self._forwarding: Dict[str, Tuple[MatchActionTable, MatchActionTable]] = {}
        foreign = self._installed_tables()
        self._install()
        self._own_tables = self._installed_tables() - foreign

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def _install(self) -> None:
        pipes_seen = []
        for binding in self.bindings:
            pipe = self.asic.pipe_for_port(binding.nf_port)
            if pipe not in pipes_seen:
                pipes_seen.append(pipe)
                self._declare_phv(pipe)
                self._install_deparser(pipe)
            share = self._memory_share(binding, pipe)
            entries = self.config.derived_table_entries(
                stage_sram_bytes=pipe.budget.sram_bytes, memory_weight_share=share
            )
            lookup = LookupTable(
                name=binding.name,
                pipeline=pipe.pipeline,
                entries=entries,
                parked_bytes=self.config.parked_bytes,
                block_bytes=self.config.payload_block_bytes,
                allow_second_pass=self.config.enable_recirculation,
            )
            tagger = PacketTagger(
                name=binding.name,
                pipeline=pipe.pipeline,
                table_entries=entries,
                clock_max=self.config.clock_max,
            )
            counters = self.counters.for_binding(binding.name)
            split = SplitPath(
                binding=binding,
                config=self.config,
                pipeline=pipe.pipeline,
                lookup=lookup,
                tagger=tagger,
                counters=counters,
            )
            merge = MergePath(
                binding=binding,
                config=self.config,
                pipeline=pipe.pipeline,
                lookup=lookup,
                counters=counters,
            )
            split.install()
            merge.install()
            self._forwarding[binding.name] = self._install_forwarding(pipe, binding)
            self.lookup_tables[binding.name] = lookup
            self.taggers[binding.name] = tagger
            self._split_paths.append(split)
            self._merge_paths.append(merge)
            self._merge_of_port[binding.nf_port] = merge
            self._split_of_port.update(dict.fromkeys(binding.ingress_ports, split))

    def _memory_share(self, binding: NfServerBinding, pipe: Pipe) -> float:
        """Static memory slicing: this binding's share of the pipe's reservation."""
        peers = self.bindings_in_pipe(pipe) or [binding]
        total_weight = sum(peer.memory_weight for peer in peers)
        return binding.memory_weight / total_weight

    def _declare_phv(self, pipe: Pipe) -> None:
        pipe.phv.declare("ethernet", 112)
        pipe.phv.declare("ipv4", 160)
        pipe.phv.declare("udp", 64)
        pipe.phv.declare("payloadpark_header", 56)
        pipe.phv.declare("pp_metadata", 48)
        first_pass_bytes = min(
            self.config.parked_bytes,
            self.config.first_pass_capacity_bytes(pipe.pipeline.stage_count - 2),
        )
        pipe.phv.declare("payload_blocks", first_pass_bytes * 8)

    def _install_deparser(self, pipe: Pipe) -> None:
        def deparse(ctx: PipelinePacket) -> None:
            merge = self._merge_of_port.get(ctx.ingress_port)
            if merge is not None:
                merge.deparse(ctx)

        pipe.deparser.hook = deparse

    # ------------------------------------------------------------------ #
    # Port plans
    # ------------------------------------------------------------------ #

    def _compile_plan(self, ingress_port: int) -> PortPlan:
        """One fused kernel per ingress port: Split for a traffic port,
        Merge for an NF port, both passes when parking recirculates.

        Falls back to the stage walk where fusing would not be exact: a
        port no binding owns, a pipe that may not recirculate although
        the parked size needs it, or a table this program did not install
        that could match on the port.
        """
        pipe = self.asic.pipe_for_port(ingress_port)
        split = self._split_of_port.get(ingress_port)
        merge = self._merge_of_port.get(ingress_port)
        path = split or merge
        fusable = (
            path is not None
            and (pipe.recirculation_limit >= 1 or not path.lookup.uses_second_pass)
            and all(
                table in self._own_tables
                or (table.ingress_ports is not None and ingress_port not in table.ingress_ports)
                for table in pipe.pipeline.tables()
            )
        )
        if not fusable:
            return super()._compile_plan(ingress_port)
        to_nf, from_nf = self._forwarding[path.binding.name]
        if split is not None:
            return split.compile_plan(pipe, self.asic, to_nf)
        return merge.compile_plan(pipe, self.asic, from_nf, self.l2)

    def _installed_tables(self) -> set:
        return {table for pipe in self.asic.pipes for table in pipe.pipeline.tables()}

    # ------------------------------------------------------------------ #
    # Control-plane introspection
    # ------------------------------------------------------------------ #

    def lookup_table(self, binding_name: Optional[str] = None) -> LookupTable:
        """Return the lookup table of *binding_name* (or the only one)."""
        if binding_name is None:
            if len(self.lookup_tables) != 1:
                raise ValueError("binding_name required when multiple bindings exist")
            return next(iter(self.lookup_tables.values()))
        return self.lookup_tables[binding_name]

    def counters_for(self, binding_name: Optional[str] = None) -> PayloadParkCounters:
        """Counters of one binding, or the aggregate when omitted."""
        if binding_name is None:
            return self.counters.total()
        return self.counters.for_binding(binding_name)

    def reset_state(self) -> None:
        """Clear lookup tables, taggers and counters between runs (control plane)."""
        for table in self.lookup_tables.values():
            table.clear()
        for tagger in self.taggers.values():
            tagger.reset()
        for counters in self.counters.counters.values():
            counters.reset()
        self.asic.reset_counters()
        self.invalidate_fast_path()


def _record_decision(asic: TofinoAsic, packet: Packet, ingress_port: int):
    """Run one reference walk; return its context and a plan replaying it.

    For a stateless program the walk's outcome depends only on the
    packet's header shape, so the plan's kernel hands every later packet
    of that shape the recorded egress decision and owes the tables the
    hits and misses the recording produced — replays leave every
    observable counter (table hits, parser/deparser counts, ASIC totals)
    exactly as a live walk would have.  The plan is None where a replay
    could not be exact.
    """
    pipe = asic.pipe_for_port(ingress_port)
    tables = pipe.pipeline.tables()
    if pipe.parser.hook is not None or pipe.deparser.hook is not None:
        # Hooks may have effects the replay cannot reproduce; process
        # live and skip caching for this pipe.
        return asic.process(packet, ingress_port), None
    if any(table.stateful for table in tables):
        # A stateful table installed after enable_fast_path()'s scan
        # (the control plane may add tables at any time): replays
        # cannot reproduce stateful actions, so stop caching for
        # this pipe rather than silently freeze its state.
        return asic.process(packet, ingress_port), None
    before = [(table.hit_count, table.miss_count) for table in tables]
    recorded = asic.process(packet, ingress_port)
    after = [(table.hit_count, table.miss_count) for table in tables]
    deltas = [
        (table, hits - hits_before, misses - misses_before)
        for table, (hits_before, misses_before), (hits, misses) in zip(tables, before, after)
        if (hits, misses) != (hits_before, misses_before)
    ]
    egress_port, recirculations = recorded.egress_port, recorded.recirculations
    dropped, drop_reason = recorded.dropped, recorded.drop_reason
    passes = recirculations + 1
    parser, deparser = pipe.parser, pipe.deparser
    counts = [0]

    def replay(packet: Packet, ingress_port: int) -> PipelinePacket:
        counts[0] += 1
        parser.parsed_packets += passes
        deparser.deparsed_packets += passes
        pipe.recirculated_packets += recirculations
        asic.processed_packets += 1
        if dropped:
            asic.dropped_packets += 1
            asic.drop_reasons[drop_reason] = asic.drop_reasons.get(drop_reason, 0) + 1
        return PipelinePacket(
            packet,
            ingress_port,
            egress_port=egress_port,
            dropped=dropped,
            drop_reason=drop_reason,
            recirculations=recirculations,
        )

    return recorded, PortPlan(pipe.pipeline, replay, counts, [deltas])
