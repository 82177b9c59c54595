"""Runtime controller for a PayloadPark deployment.

The controller is the control-plane counterpart of
:class:`~repro.core.program.PayloadParkProgram`: it reads the dataplane
counters and lookup-table occupancy, installs L2 forwarding entries, and
implements the adaptive eviction policy the paper leaves as future work
(§7): start with an aggressive expiry threshold for memory efficiency
and back off to a conservative one when premature evictions appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.program import PayloadParkProgram


class PayloadParkController:
    """Reads state from, and pushes configuration to, a running program."""

    def __init__(self, program: PayloadParkProgram) -> None:
        self.program = program

    # ------------------------------------------------------------------ #
    # Monitoring
    # ------------------------------------------------------------------ #

    def counters(self, binding: Optional[str] = None) -> Dict[str, int]:
        """The eight monitoring counters (§5) for one binding or the aggregate."""
        return self.program.counters_for(binding).as_dict()

    def occupancy(self) -> Dict[str, float]:
        """Occupied fraction of every binding's lookup table."""
        return {
            name: table.occupancy_fraction()
            for name, table in self.program.lookup_tables.items()
        }

    def health(self) -> Dict[str, bool]:
        """Per-binding functional-equivalence health: zero premature evictions."""
        return {
            name: self.program.counters_for(name).premature_evictions == 0
            for name in self.program.lookup_tables
        }

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #

    def install_l2_route(self, mac: str, port: int) -> None:
        """Install a destination-MAC forwarding entry."""
        self.program.add_l2_entry(mac, port)

    def set_expiry_threshold(self, threshold: int) -> None:
        """Change the eviction expiry threshold for subsequent Splits."""
        if threshold < 1:
            raise ValueError("expiry threshold must be at least 1")
        self.program.config.expiry_threshold = threshold

    @property
    def expiry_threshold(self) -> int:
        """The currently configured expiry threshold."""
        return self.program.config.expiry_threshold

    def reset(self) -> None:
        """Clear dataplane state (tables, taggers, counters)."""
        self.program.reset_state()


class ControlPlaneManager:
    """Operator-level manager for one *running* deployment.

    Where :class:`PayloadParkController` manages the switch program
    alone, the manager spans the whole testbed — program *and* topology
    — which is what mid-run reconfiguration needs: draining parked
    payloads must invalidate fast-path caches, and resetting between
    back-to-back runs on a shared topology must clear the link counters
    too, not just the program state.  The fault-injection subsystem
    (:mod:`repro.faults`) drives every reconfiguration through this
    class, and works against the baseline program as well (PayloadPark-
    only operations degrade to no-ops there).
    """

    def __init__(self, program: Any, topology: Any = None) -> None:
        self.program = program
        self.topology = topology
        self.controller: Optional[PayloadParkController] = (
            PayloadParkController(program)
            if isinstance(program, PayloadParkProgram)
            else None
        )
        #: Flight-recorder hook (repro.obs): drain operations close the
        #: affected park spans with the ``drained`` outcome.
        self.obs_recorder = None

    @property
    def is_payloadpark(self) -> bool:
        """True when the managed program parks payloads."""
        return self.controller is not None

    # ------------------------------------------------------------------ #
    # Topology access
    # ------------------------------------------------------------------ #

    def links(self) -> List[Any]:
        """Every link in the managed topology (empty without a topology)."""
        if self.topology is None:
            return []
        found = []
        for attachment in self.topology.attachments:
            found.extend(attachment.gen_links)
            found.append(attachment.server_link)
        return found

    # ------------------------------------------------------------------ #
    # Reconfiguration
    # ------------------------------------------------------------------ #

    def set_expiry_threshold(self, threshold: int) -> bool:
        """Change the eviction expiry threshold mid-run.

        Returns False (no-op) for the baseline program, which has no
        eviction machinery.
        """
        if self.controller is None:
            return False
        self.controller.set_expiry_threshold(threshold)
        return True

    def drain_parked(
        self, binding: Optional[str] = None, fraction: float = 1.0
    ) -> Dict[str, int]:
        """Reclaim occupied parking slots, accounting each as an eviction.

        Drains the first ``ceil(occupied * fraction)`` occupied slots of
        every targeted binding (deterministic order — index order — so
        runs reproduce exactly).  Each drained payload increments the
        binding's ``evictions`` counter, exactly as the expiry policy
        would: the dataplane identity *outstanding == occupied* keeps
        holding, and the packet whose payload was drained registers a
        premature eviction when its header returns for the Merge.
        Returns drained-slot counts per binding; empty for the baseline.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"drain fraction must lie in (0, 1], got {fraction}")
        if self.controller is None:
            return {}
        program = self.program
        drained: Dict[str, int] = {}
        for name, table in program.lookup_tables.items():
            if binding is not None and name != binding:
                continue
            occupied = table.occupied_indices()
            take = math.ceil(len(occupied) * fraction)
            count = 0
            recorder = self.obs_recorder
            for index in occupied[:take]:
                if table.drain_slot(index):
                    program.counters_for(name).evictions += 1
                    count += 1
                    if recorder is not None:
                        recorder.slot_drained(name, index)
            drained[name] = count
        program.invalidate_fast_path()
        return drained

    def reset(self) -> None:
        """Reset the deployment between runs: program state *and* testbed counters.

        Clears the program's tables/taggers/counters (PayloadPark) or
        compiled port plans (baseline), and zeroes every link's counters —
        drop/occupancy statistics must not leak into the next run on a
        shared topology.
        """
        if self.controller is not None:
            self.controller.reset()
        else:
            self.program.invalidate_fast_path()
            self.program.asic.reset_counters()
        for link in self.links():
            link.reset_stats()


@dataclass
class AdaptiveEvictionPolicy:
    """The adaptive eviction policy sketched in §7.

    The policy starts aggressive (low threshold, best memory efficiency)
    and becomes more conservative whenever new premature evictions are
    observed during a control interval; after enough clean intervals it
    steps back toward the aggressive setting.

    Attributes
    ----------
    controller:
        The deployment to manage.
    aggressive_threshold / conservative_threshold:
        Bounds of the expiry threshold.
    eviction_tolerance:
        Premature evictions tolerated per interval before backing off.
    recovery_intervals:
        Consecutive clean intervals required before stepping back down.
    """

    controller: PayloadParkController
    aggressive_threshold: int = 1
    conservative_threshold: int = 10
    eviction_tolerance: int = 0
    recovery_intervals: int = 3
    _last_premature: int = field(default=0, init=False)
    _clean_streak: int = field(default=0, init=False)
    history: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.aggressive_threshold < 1:
            raise ValueError("aggressive_threshold must be at least 1")
        if self.conservative_threshold < self.aggressive_threshold:
            raise ValueError("conservative_threshold must be >= aggressive_threshold")
        self.controller.set_expiry_threshold(self.aggressive_threshold)

    def observe(self) -> int:
        """Run one control interval; return the threshold now in effect.

        Call periodically (e.g. once per polling interval).  New premature
        evictions since the last call push the threshold up one step;
        ``recovery_intervals`` consecutive clean calls pull it down one.
        """
        premature = self.controller.counters()["premature_evictions"]
        new_evictions = premature - self._last_premature
        self._last_premature = premature
        threshold = self.controller.expiry_threshold

        if new_evictions > self.eviction_tolerance:
            threshold = min(threshold + 1, self.conservative_threshold)
            self._clean_streak = 0
        else:
            self._clean_streak += 1
            if self._clean_streak >= self.recovery_intervals:
                threshold = max(threshold - 1, self.aggressive_threshold)
                self._clean_streak = 0

        self.controller.set_expiry_threshold(threshold)
        self.history.append(threshold)
        return threshold
