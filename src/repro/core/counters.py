"""Monitoring counters maintained by the PayloadPark dataplane (§5).

The prototype keeps eight counters spread over the first three stages;
they drive the evaluation's health checks (zero premature evictions is a
prerequisite for functional equivalence) and the Fig. 12/14 analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class PayloadParkCounters:
    """Per-binding PayloadPark counters.

    Attributes
    ----------
    splits:
        Packets whose payload was successfully parked (ENB set to 1).
    split_disabled_small_payload:
        Split skipped because the payload was smaller than the minimum
        parking size (160 bytes in the prototype).
    split_disabled_table_occupied:
        Split skipped because the probed lookup-table slot was occupied
        and not yet eligible for eviction.
    merges:
        Packets whose parked payload was successfully merged back.
    explicit_drops:
        Explicit Drop notifications processed (OP = 1).
    merge_enb_zero:
        Packets received back from the NF server with ENB = 0 (nothing
        to merge; the PayloadPark header is simply removed).
    evictions:
        Parked payloads evicted by the expiry policy (space reclaimed by
        a later Split).
    premature_evictions:
        Merge requests whose payload had already been evicted; the packet
        is dropped and this counter incremented.
    tag_validation_failures:
        Merge requests whose header CRC did not validate.
    """

    splits: int = 0
    split_disabled_small_payload: int = 0
    split_disabled_table_occupied: int = 0
    merges: int = 0
    explicit_drops: int = 0
    merge_enb_zero: int = 0
    evictions: int = 0
    premature_evictions: int = 0
    tag_validation_failures: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Return every counter keyed by name."""
        return {
            "splits": self.splits,
            "split_disabled_small_payload": self.split_disabled_small_payload,
            "split_disabled_table_occupied": self.split_disabled_table_occupied,
            "merges": self.merges,
            "explicit_drops": self.explicit_drops,
            "merge_enb_zero": self.merge_enb_zero,
            "evictions": self.evictions,
            "premature_evictions": self.premature_evictions,
            "tag_validation_failures": self.tag_validation_failures,
        }

    @property
    def split_attempts(self) -> int:
        """Packets that reached the Split stage on an enabled port."""
        return (
            self.splits
            + self.split_disabled_small_payload
            + self.split_disabled_table_occupied
        )

    @property
    def outstanding_payloads(self) -> int:
        """Parked payloads not yet merged, dropped or evicted."""
        return self.splits - self.merges - self.explicit_drops - self.evictions

    def merge_from(self, other: "PayloadParkCounters") -> None:
        """Accumulate another counter set into this one (for multi-binding reports)."""
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)


@dataclass
class CounterBank:
    """A named collection of :class:`PayloadParkCounters`, one per NF-server binding."""

    counters: Dict[str, PayloadParkCounters] = field(default_factory=dict)

    def for_binding(self, name: str) -> PayloadParkCounters:
        """Return (creating if needed) the counters of binding *name*."""
        if name not in self.counters:
            self.counters[name] = PayloadParkCounters()
        return self.counters[name]

    def total(self) -> PayloadParkCounters:
        """Aggregate counters across all bindings."""
        total = PayloadParkCounters()
        for counters in self.counters.values():
            total.merge_from(counters)
        return total
