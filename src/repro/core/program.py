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

import math
from typing import Callable, Dict, List, Optional, Set

from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.counters import CounterBank, PayloadParkCounters
from repro.core.l2fwd import L2ForwardingTable
from repro.core.lookup_table import LookupTable
from repro.core.merge import MergePath
from repro.core.split import SplitPath
from repro.core.tagger import PacketTagger
from repro.packet.ethernet import MacAddress
from repro.packet.packet import Packet
from repro.switchsim.asic import TofinoAsic
from repro.switchsim.context import PipelinePacket
from repro.switchsim.mat import MatchActionTable
from repro.switchsim.pipe import Pipe
from repro.switchsim.pipeline import PortPlan
from repro.switchsim.resources import ResourceReport


class SwitchProgram:
    """Common behaviour of the PayloadPark and baseline programs."""

    def __init__(
        self,
        bindings: List[NfServerBinding],
        asic: Optional[TofinoAsic] = None,
    ) -> None:
        if not bindings:
            raise ValueError("a switch program needs at least one NF-server binding")
        self.asic = asic or TofinoAsic()
        self.bindings = list(bindings)
        self.l2 = L2ForwardingTable()
        self.fast_path = False
        #: ingress_port -> compiled plan; only populated with the fast
        #: path enabled.
        self._plans: Dict[int, PortPlan] = {}
        #: ingress port (traffic or NF) -> the binding that owns it.
        self._binding_of_port: Dict[int, NfServerBinding] = {}
        #: What this program's kernels reproduce: the tables it installed
        #: (see :meth:`_install_owned`) and the parser / deparser hooks it
        #: set — None, "no hook", among them.
        self._own_tables: Set[MatchActionTable] = set()
        self._own_hooks: Set[Optional[Callable]] = {None}
        self._validate_bindings()

    # ------------------------------------------------------------------ #
    # Fast path control
    # ------------------------------------------------------------------ #

    def enable_fast_path(self, enabled: bool = True) -> None:
        """Switch the program to its default engine.

        The fast path is behaviour-preserving: port plans reproduce the
        reference stage walk's packet outcomes, register state and
        PayloadPark counters exactly — the golden-figure suite runs
        every experiment in both modes and diffs the tables.
        """
        self.fast_path = enabled
        self.invalidate_fast_path()

    def invalidate_fast_path(self) -> None:
        """Drop the compiled port plans; the next packet on each port
        compiles its plan afresh.

        No control-plane write of this package needs it: a table install
        retires plans by itself (through the pipeline version), and the
        kernels read the MAC table, the configuration and the register
        storage live.  It is the hook for code that changes what a plan
        was compiled from in some other way.
        """
        self._plans.clear()

    # ------------------------------------------------------------------ #
    # Binding / port helpers
    # ------------------------------------------------------------------ #

    def _validate_bindings(self) -> None:
        owner = self._binding_of_port
        for binding in self.bindings:
            ports = list(binding.ingress_ports) + [binding.nf_port]
            for port in ports:
                self.asic.pipe_for_port(port)  # raises on out-of-range ports
                if port in owner:
                    raise ValueError(
                        f"port {port} is used by both {owner[port].name!r} and "
                        f"{binding.name!r}"
                    )
                owner[port] = binding
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
        """Install a destination-MAC forwarding entry (control plane).

        The kernels read the MAC table live, so no plan is invalidated.
        """
        self.l2.add_entry(MacAddress.from_string(mac), port)

    # ------------------------------------------------------------------ #
    # Forwarding tables shared by both programs
    # ------------------------------------------------------------------ #

    def _install_forwarding(self, pipe: Pipe, binding: NfServerBinding) -> None:
        """Install the binding's to-NF and from-NF tables."""
        last_stage = pipe.pipeline.stage_count - 1
        ingress_ports = frozenset(binding.ingress_ports)

        def match_from_traffic(ctx: PipelinePacket) -> bool:
            return ctx.ingress_port in ingress_ports

        def forward_to_nf(ctx: PipelinePacket) -> None:
            ctx.forward_to(binding.nf_port)

        def match_from_nf(ctx: PipelinePacket) -> bool:
            return ctx.ingress_port == binding.nf_port

        def forward_from_nf(ctx: PipelinePacket) -> None:
            ctx.forward_to(self.l2.lookup(ctx.packet.eth.dst, binding.default_egress_port))

        pipe.pipeline.stage(last_stage).add_table(
            MatchActionTable(
                name=f"{binding.name}.l2_fwd_to_nf",
                match=match_from_traffic,
                action=forward_to_nf,
                match_bits=16,
                vliw_slots=1,
                ingress_ports=ingress_ports,
            )
        )
        pipe.pipeline.stage(last_stage).add_table(
            MatchActionTable(
                name=f"{binding.name}.l2_fwd_from_nf",
                match=match_from_nf,
                action=forward_from_nf,
                match_bits=64,
                entries=64,
                vliw_slots=1,
                ingress_ports=frozenset((binding.nf_port,)),
            )
        )

    def _install_owned(self, install: Callable[[], None]) -> None:
        """Run *install* and claim the tables it adds to the ASIC."""
        foreign = self._installed_tables()
        install()
        self._own_tables = self._installed_tables() - foreign

    def _installed_tables(self) -> Set[MatchActionTable]:
        return {table for pipe in self.asic.pipes for table in pipe.pipeline.tables()}

    # ------------------------------------------------------------------ #
    # Packet processing
    # ------------------------------------------------------------------ #

    def process(self, packet: Packet, ingress_port: int) -> PipelinePacket:
        """Run *packet* through the pipe owning *ingress_port*.

        With the fast path off this is the reference stage walk.  With
        it on, the ingress port's plan runs instead (see
        :meth:`_compile_plan`); a plan is dropped by a pipeline version
        bump (a table install) and by :meth:`invalidate_fast_path`.
        """
        if not self.fast_path:
            return self.asic.process(packet, ingress_port)
        plan = self._plans.get(ingress_port)
        if plan is None or plan.version != plan.pipeline.version:
            plan = self._plans[ingress_port] = self._compile_plan(ingress_port)
        return plan.run(packet, ingress_port)

    def _compile_plan(self, ingress_port: int) -> PortPlan:
        """The plan for packets arriving on *ingress_port*.

        A program overrides this to fuse its tables into one kernel for
        a port that is :meth:`_fusable`; the plan every program can
        offer for every port is the stage walk itself.
        """
        pipeline = self.asic.pipe_for_port(ingress_port).pipeline
        return PortPlan(pipeline, self.asic.process)

    def _fusable(self, ingress_port: int) -> bool:
        """Whether a kernel written from this program's tables alone is
        exact on *ingress_port*.

        It is when one of the bindings owns the port, the pipe's parser
        and deparser run no hook but the program's own, and every table
        in the pipe is the program's own or scoped to other ports.
        """
        pipe = self.asic.pipe_for_port(ingress_port)
        return (
            ingress_port in self._binding_of_port
            and pipe.parser.hook in self._own_hooks
            and pipe.deparser.hook in self._own_hooks
            and all(
                table in self._own_tables
                or (table.ingress_ports is not None and ingress_port not in table.ingress_ports)
                for table in pipe.pipeline.tables()
            )
        )

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
    """

    def __init__(
        self,
        bindings: List[NfServerBinding],
        asic: Optional[TofinoAsic] = None,
    ) -> None:
        super().__init__(bindings, asic=asic)
        self.name = "baseline"
        self._install_owned(self._install)

    def _install(self) -> None:
        for binding in self.bindings:
            pipe = self.asic.pipe_for_port(binding.nf_port)
            self._declare_phv(pipe)
            self._install_forwarding(pipe, binding)

    def _compile_plan(self, ingress_port: int) -> PortPlan:
        """One kernel per ingress port: to the NF server from a traffic
        port, by destination MAC (read live) from an NF port.  Either
        way the packet takes one pass.
        """
        if not self._fusable(ingress_port):
            return super()._compile_plan(ingress_port)
        binding = self._binding_of_port[ingress_port]
        l2 = self.l2
        nf_port, default_egress = binding.nf_port, binding.default_egress_port
        new = object.__new__

        # Both kernels build their PipelinePacket in place, every field
        # stored in declaration order (see repro.core.split).
        if ingress_port == nf_port:

            def forward(packet, ingress_port: int) -> PipelinePacket:
                ctx = new(PipelinePacket)
                ctx.packet = packet
                ctx.ingress_port = ingress_port
                ctx.meta = {}
                ctx.egress_port = l2.lookup(packet.eth.dst, default_egress)
                ctx.dropped = False
                ctx.drop_reason = ""
                ctx.recirculations = 0
                ctx.recirculate_requested = False
                ctx.register_reads = None
                ctx.register_writes = None
                return ctx

        else:

            def forward(packet, ingress_port: int) -> PipelinePacket:
                ctx = new(PipelinePacket)
                ctx.packet = packet
                ctx.ingress_port = ingress_port
                ctx.meta = {}
                ctx.egress_port = nf_port
                ctx.dropped = False
                ctx.drop_reason = ""
                ctx.recirculations = 0
                ctx.recirculate_requested = False
                ctx.register_reads = None
                ctx.register_writes = None
                return ctx

        return PortPlan(self.asic.pipe_for_port(ingress_port).pipeline, forward)

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
    asic:
        An existing simulated ASIC to install into; a fresh one with the
        default dimensions otherwise.
    """

    def __init__(
        self,
        config: PayloadParkConfig,
        bindings: Optional[List[NfServerBinding]] = None,
        asic: Optional[TofinoAsic] = None,
    ) -> None:
        resolved_bindings = list(bindings) if bindings is not None else list(config.bindings)
        super().__init__(resolved_bindings, asic=asic)
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
        self._install_owned(self._install)

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
            self._install_forwarding(pipe, binding)
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
        self._own_hooks.add(deparse)

    # ------------------------------------------------------------------ #
    # Port plans
    # ------------------------------------------------------------------ #

    def _compile_plan(self, ingress_port: int) -> PortPlan:
        """One fused kernel per ingress port: Split for a traffic port,
        Merge for an NF port, both passes when parking recirculates.

        Falls back to the stage walk where fusing would not be exact:
        a port that is not :meth:`_fusable`, or a pipe that may not
        recirculate although the parked size needs it.
        """
        pipe = self.asic.pipe_for_port(ingress_port)
        split = self._split_of_port.get(ingress_port)
        merge = self._merge_of_port.get(ingress_port)
        path = split or merge
        if not self._fusable(ingress_port) or (
            path.lookup.uses_second_pass and pipe.recirculation_limit < 1
        ):
            return super()._compile_plan(ingress_port)
        if split is not None:
            return split.compile_plan()
        return merge.compile_plan(self.l2)

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

    def drain_parked(
        self, binding: Optional[str] = None, fraction: float = 1.0, recorder=None
    ) -> Dict[str, int]:
        """Reclaim occupied parking slots, accounting each as an eviction.

        Drains the first ``ceil(occupied * fraction)`` occupied slots of
        every targeted binding, in index order so runs reproduce exactly.
        Each drained payload counts one ``evictions``, as the expiry
        policy would: the identity *outstanding == occupied* keeps
        holding, and the packet whose payload was drained registers a
        premature eviction when its header returns for the Merge.
        *recorder* (repro.obs) closes each drained slot's park span.
        Returns drained-slot counts per binding.  The port plans index
        the register storage in place, so they see the drained slots as
        they stand.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"drain fraction must lie in (0, 1], got {fraction}")
        drained: Dict[str, int] = {}
        for name, table in self.lookup_tables.items():
            if binding is not None and name != binding:
                continue
            occupied = table.occupied_indices()
            counters = self.counters_for(name)
            count = 0
            for index in occupied[:math.ceil(len(occupied) * fraction)]:
                if table.drain_slot(index):
                    counters.evictions += 1
                    count += 1
                    if recorder is not None:
                        recorder.slot_drained(name, index)
            drained[name] = count
        return drained

