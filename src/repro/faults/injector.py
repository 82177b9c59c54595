"""The fault injector: a simulation node that executes a chaos schedule.

:class:`FaultInjectorNode` is wired into a topology by the experiment
runner when a scenario carries a ``faults`` spec.  At traffic start it
materializes the schedule against the run horizon and registers one
event-loop callback per fault event; at each callback it resolves the
event's targets against the *live* testbed (links by selector, Maglev
load balancers and firewalls by scanning the NF chains, the switch
program itself) and applies the mutation.  The two PayloadPark-only
kinds, ``expiry_threshold`` and ``park_drain``, are no-ops on the
baseline program.

Determinism contract: every random choice — which backend drains, the
per-window loss/jitter RNG seeds — derives from the injector seed and
the event's materialization sequence, never from ambient state.  The
same scenario therefore replays the same churn on the fast and the
reference simulation path, which is what lets the fast-vs-slow and
seed-determinism metamorphic relations hold under active fault
schedules (``tests/property/test_property_faults.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.program import PayloadParkProgram
from repro.errors import FaultSpecError
from repro.faults.events import FaultEvent, is_link_selector
from repro.faults.schedule import EventSchedule
from repro.netsim.eventloop import EventLoop
from repro.netsim.node import Node
from repro.nf.firewall import Firewall, FirewallRule
from repro.nf.loadbalancer import Backend, MaglevLoadBalancer
from repro.workloads.base import derived_rng

#: RNG salt for the injector's own choices (backend selection).
_INJECTOR_SALT = 0x_FA_02

#: RNG salt namespace for per-event loss/jitter windows.
_WINDOW_SALT = 0x_FA_03

#: Subnet pool for chaos-added firewall rules: an address range the
#: traffic generators never use, so a rule burst changes the ACL's
#: probe cost without (by default) changing any verdict.
_CHAOS_RULE_SUBNET = "172.31.{octet}.0/24"


class FaultInjectorNode(Node):
    """Executes an :class:`EventSchedule` against a running testbed."""

    def __init__(
        self,
        env: EventLoop,
        topology: Any,
        program: Any,
        schedule: EventSchedule,
        seed: int = 0,
        name: str = "fault-injector",
    ) -> None:
        super().__init__(env, name)
        self.topology = topology
        self.schedule = schedule
        self.seed = seed
        self.program = program
        self._rng = derived_rng(seed, _INJECTOR_SALT)
        self._chaos_rule_count = 0
        self._chaos_backend_count = 0
        #: Rules this injector added, so ``firewall_churn remove`` prefers
        #: withdrawing its own rules before touching the scenario's ACL.
        self._added_rules: Dict[int, List[FirewallRule]] = {}
        # Counters (surfaced via ``stats`` and read by the chaos suite).
        self.events_applied = 0
        self.links_downed = 0
        self.loss_windows = 0
        self.jitter_windows = 0
        self.backends_removed = 0
        self.backends_added = 0
        self.rules_added = 0
        self.rules_removed = 0
        self.threshold_changes = 0
        #: Binding name -> parking slots drained by park_drain events.
        self.slots_drained: Dict[str, int] = {}
        # Overlapping-window bookkeeping.  Outage windows nest: a link
        # comes back up only when every window covering it has closed.
        # Loss/jitter windows are last-writer-wins: a window's close
        # restores the link only if no newer window has re-armed it
        # since (the token identifies the arming event).
        self._down_depth: Dict[int, int] = {}
        #: Outage epoch per link: an explicit link_up bumps it, which
        #: cancels every back_up timer armed in the previous epoch (a
        #: stale closure must not end a window opened after the link_up).
        self._down_epoch: Dict[int, int] = {}
        self._loss_token: Dict[int, int] = {}
        self._jitter_token: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def start(self, duration_ns: int) -> None:
        """Materialize the schedule and arm one callback per event."""
        if duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        base_ns = self.env.now
        for event in self.schedule.materialize(self.seed, duration_ns):
            self.env.schedule_at(base_ns + event.at_ns, self.apply_event, event)

    # ------------------------------------------------------------------ #
    # Target resolution
    # ------------------------------------------------------------------ #

    def _select_links(self, params) -> List[Any]:
        """Resolve a ``link``/``binding`` selector pair against the topology.

        Selector names are validated at spec time (see
        :func:`~repro.faults.events.is_link_selector`); this re-check
        covers callers that build events programmatically.
        """
        selector = params.get("link", "server")
        if not is_link_selector(selector):
            raise FaultSpecError(
                f"link selector {selector!r} matched nothing; "
                "expected server, gen, genN or all"
            )
        binding = params.get("binding")
        links: List[Any] = []
        for attachment in self.topology.attachments:
            if binding is not None and attachment.binding.name != binding:
                continue
            if selector in ("server", "all"):
                links.append(attachment.server_link)
            if selector in ("gen", "all"):
                links.extend(attachment.gen_links)
            elif selector.startswith("gen") and selector != "gen":
                index = int(selector[3:])
                if index < len(attachment.gen_links):
                    links.append(attachment.gen_links[index])
        if not links:
            # A well-formed selector that matches nothing (binding typo,
            # genN beyond the topology's generator count) must fail loudly
            # — a silently no-op'd fault event would let a run claim
            # chaos coverage it never had.
            raise FaultSpecError(
                f"link selector {selector!r}"
                + (f" with binding {binding!r}" if binding is not None else "")
                + " matched no link in this topology"
            )
        return links

    def _nfs_of_type(self, nf_type) -> List[Tuple[Any, Any]]:
        """Every ``(server_node, nf)`` pair of *nf_type* across the chains."""
        found = []
        for attachment in self.topology.attachments:
            server = attachment.server
            for nf in server.model.chain:
                if isinstance(nf, nf_type):
                    found.append((server, nf))
        return found

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def apply_event(self, event: FaultEvent) -> None:
        """Apply one event now (normally invoked by the event loop)."""
        self._apply(event)  # looked up per event: the observability seam

    def _apply(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_apply_{event.kind}")
        handler(event)
        self.events_applied += 1

    def _apply_link_down(self, event: FaultEvent) -> None:
        links = self._select_links(event.params)
        epochs = {}
        for link in links:
            self._down_depth[id(link)] = self._down_depth.get(id(link), 0) + 1
            epochs[id(link)] = self._down_epoch.get(id(link), 0)
            link.set_up(False)
        self.links_downed += len(links)
        duration = event.duration_ns
        if duration:
            def back_up() -> None:
                for link in links:
                    if self._down_epoch.get(id(link), 0) != epochs[id(link)]:
                        # An explicit link_up ended this epoch; the
                        # window (and its depth contribution) is gone.
                        continue
                    depth = self._down_depth.get(id(link), 1) - 1
                    self._down_depth[id(link)] = depth
                    if depth <= 0:
                        link.set_up(True)

            self.env.schedule_in(duration, back_up)

    def _apply_link_up(self, event: FaultEvent) -> None:
        # An explicit up event ends every outstanding outage window and
        # starts a fresh epoch, cancelling their pending back_up timers.
        for link in self._select_links(event.params):
            self._down_depth[id(link)] = 0
            self._down_epoch[id(link)] = self._down_epoch.get(id(link), 0) + 1
            link.set_up(True)

    def _apply_link_loss(self, event: FaultEvent) -> None:
        probability = float(event.params["probability"])
        links = self._select_links(event.params)
        for index, link in enumerate(links):
            self._loss_token[id(link)] = event.sequence
            link.set_loss(
                probability,
                seed=self._window_seed(event.sequence, index),
            )
        self.loss_windows += 1
        duration = event.duration_ns
        if duration:
            def close_window() -> None:
                for link in links:
                    if self._loss_token.get(id(link)) == event.sequence:
                        link.set_loss(0.0)

            self.env.schedule_in(duration, close_window)

    def _apply_link_jitter(self, event: FaultEvent) -> None:
        jitter_ns = int(event.params["jitter_ns"])
        links = self._select_links(event.params)
        for index, link in enumerate(links):
            self._jitter_token[id(link)] = event.sequence
            link.set_jitter(jitter_ns, seed=self._window_seed(event.sequence, index))
        self.jitter_windows += 1
        duration = event.duration_ns
        if duration:
            def close_window() -> None:
                for link in links:
                    if self._jitter_token.get(id(link)) == event.sequence:
                        link.set_jitter(0)

            self.env.schedule_in(duration, close_window)

    def _window_seed(self, sequence: int, link_index: int) -> int:
        return (self.seed * 1_000_003 + _WINDOW_SALT * 8_191
                + sequence * 127 + link_index) & 0xFFFFFFFF

    def _apply_backend_churn(self, event: FaultEvent) -> None:
        action = event.params.get("action", "flap")
        count = int(event.params.get("count", 1))
        for _server, lb in self._nfs_of_type(MaglevLoadBalancer):
            for _ in range(count):
                if action in ("remove", "flap") and len(lb.backends) > 1:
                    victim = self._rng.choice(lb.backends)
                    lb.remove_backend(victim.name)
                    self.backends_removed += 1
                    if action == "flap":
                        lb.add_backend(victim)
                        self.backends_added += 1
                elif action == "add":
                    self._chaos_backend_count += 1
                    n = self._chaos_backend_count
                    lb.add_backend(
                        Backend.from_string(
                            f"chaos-{n}", f"10.200.{n // 250}.{n % 250 + 1}"
                        )
                    )
                    self.backends_added += 1

    def _apply_firewall_churn(self, event: FaultEvent) -> None:
        action = event.params.get("action", "add")
        count = int(event.params.get("count", 1))
        subnet = event.params.get("subnet")
        touched = []
        for server, firewall in self._nfs_of_type(Firewall):
            added = self._added_rules.setdefault(id(firewall), [])
            for _ in range(count):
                if action == "add":
                    if subnet is not None:
                        rule = FirewallRule.blacklist(subnet)
                    else:
                        self._chaos_rule_count += 1
                        rule = FirewallRule.blacklist(
                            _CHAOS_RULE_SUBNET.format(
                                octet=self._chaos_rule_count % 256
                            )
                        )
                    firewall.add_rule(rule)
                    added.append(rule)
                    self.rules_added += 1
                else:
                    if added:
                        rule = added.pop()
                        firewall.remove_rule(firewall.rules.index(rule))
                        self.rules_removed += 1
                    elif len(firewall.rules) > 1:
                        # Never drain the ACL completely: the scenario's
                        # semantics (which traffic is blacklisted) should
                        # degrade, not invert.
                        firewall.remove_rule(0)
                        self.rules_removed += 1
            touched.append(server)
        # Rule-count changes move the chain's cycle estimates; re-derive
        # the fast path's cached cost model at the same instant the
        # reference path (which queries live) picks the change up.
        for server in touched:
            server.invalidate_cost_cache()

    def _apply_expiry_threshold(self, event: FaultEvent) -> None:
        if isinstance(self.program, PayloadParkProgram):
            self.program.config.expiry_threshold = int(event.params["value"])
            self.threshold_changes += 1

    def _apply_park_drain(self, event: FaultEvent) -> None:
        if not isinstance(self.program, PayloadParkProgram):
            return
        drained = self.program.drain_parked(
            binding=event.params.get("binding"),
            fraction=float(event.params.get("fraction", 1.0)),
        )
        for name, indices in drained.items():
            self.slots_drained[name] = self.slots_drained.get(name, 0) + len(indices)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def handle_packet(self, packet, port) -> None:  # pragma: no cover - no links
        raise NotImplementedError("the fault injector terminates no links")

    def stats(self) -> Dict[str, float]:
        """Counter snapshot (chaos-suite assertions, preview output)."""
        return {
            "events_applied": float(self.events_applied),
            "links_downed": float(self.links_downed),
            "loss_windows": float(self.loss_windows),
            "jitter_windows": float(self.jitter_windows),
            "backends_removed": float(self.backends_removed),
            "backends_added": float(self.backends_added),
            "rules_added": float(self.rules_added),
            "rules_removed": float(self.rules_removed),
            "threshold_changes": float(self.threshold_changes),
            "slots_drained": float(sum(self.slots_drained.values())),
        }
