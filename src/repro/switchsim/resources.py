"""Per-stage and per-pipe hardware resource accounting.

Table 1 of the paper reports the PayloadPark prototype's utilization of
SRAM, TCAM, VLIW action slots, exact/ternary match crossbars and the
Packet Header Vector.  The simulator tracks the same resources: register
arrays and match tables *allocate* from a :class:`StageResources` budget,
and :class:`ResourceReport` summarizes utilization the way Table 1 does
(average and peak per-stage SRAM, plus chip-wide percentages).

The default budget numbers below are calibrated, not copied from a data
sheet (precise Tofino figures are confidential, as the paper itself notes
in §5): 12 match-action stages per pipe, 32 KiB of *register-capable*
(stateful) SRAM per stage usable by a single program's register arrays,
and a 4 Kb PHV.  With these values a 26 % reservation yields a lookup
table of ≈ 530 entries per binding, which matches the operating points
the paper reports in §6.3.1: with ≈ 30 µs between Split and Merge,
premature evictions appear at send rates around 10–13 Mpps of 384-byte
packets, exactly where Fig. 14's peak-goodput curve bends.  Absolute
sizes are configurable, and EXPERIMENTS.md records the values used for
the Table 1 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass(frozen=True)
class ResourceBudget:
    """Capacity of one match-action stage (and shared per-pipe resources)."""

    sram_bytes: int = 32_768  # 32 KiB of register-capable SRAM per stage
    tcam_entries: int = 2_048
    vliw_slots: int = 32
    exact_crossbar_bits: int = 1_024
    ternary_crossbar_bits: int = 512
    #: PHV capacity is a per-pipe resource but is reported alongside the
    #: per-stage ones in Table 1; 4 Kb matches Tofino-class documentation.
    phv_bits: int = 4_096


@dataclass
class StageResources:
    """Mutable allocation state of a single stage."""

    budget: ResourceBudget = field(default_factory=ResourceBudget)
    sram_bytes_used: int = 0
    tcam_entries_used: int = 0
    vliw_slots_used: int = 0
    exact_crossbar_bits_used: int = 0
    ternary_crossbar_bits_used: int = 0

    def allocate_sram(self, nbytes: int, what: str = "") -> None:
        """Reserve *nbytes* of stage SRAM or raise ``ResourceExhausted``."""
        if nbytes < 0:
            raise ValueError("cannot allocate a negative number of bytes")
        if self.sram_bytes_used + nbytes > self.budget.sram_bytes:
            raise ResourceExhausted(
                f"stage SRAM exhausted allocating {nbytes} bytes for {what!r}: "
                f"{self.sram_bytes_used}/{self.budget.sram_bytes} bytes already in use"
            )
        self.sram_bytes_used += nbytes

    def allocate_tcam(self, entries: int, what: str = "") -> None:
        """Reserve TCAM entries."""
        if self.tcam_entries_used + entries > self.budget.tcam_entries:
            raise ResourceExhausted(f"stage TCAM exhausted for {what!r}")
        self.tcam_entries_used += entries

    def allocate_vliw(self, slots: int, what: str = "") -> None:
        """Reserve VLIW action slots."""
        if self.vliw_slots_used + slots > self.budget.vliw_slots:
            raise ResourceExhausted(f"stage VLIW slots exhausted for {what!r}")
        self.vliw_slots_used += slots

    def allocate_crossbar(self, bits: int, ternary: bool = False, what: str = "") -> None:
        """Reserve match crossbar input bits (exact or ternary)."""
        if ternary:
            if self.ternary_crossbar_bits_used + bits > self.budget.ternary_crossbar_bits:
                raise ResourceExhausted(f"ternary crossbar exhausted for {what!r}")
            self.ternary_crossbar_bits_used += bits
        else:
            if self.exact_crossbar_bits_used + bits > self.budget.exact_crossbar_bits:
                raise ResourceExhausted(f"exact crossbar exhausted for {what!r}")
            self.exact_crossbar_bits_used += bits

    # Percentages -------------------------------------------------------- #

    @property
    def sram_percent(self) -> float:
        """SRAM utilization of this stage in percent."""
        return 100.0 * self.sram_bytes_used / self.budget.sram_bytes

    @property
    def tcam_percent(self) -> float:
        """TCAM utilization of this stage in percent."""
        return 100.0 * self.tcam_entries_used / self.budget.tcam_entries

    @property
    def vliw_percent(self) -> float:
        """VLIW slot utilization of this stage in percent."""
        return 100.0 * self.vliw_slots_used / self.budget.vliw_slots

    @property
    def exact_crossbar_percent(self) -> float:
        """Exact-match crossbar utilization in percent."""
        return 100.0 * self.exact_crossbar_bits_used / self.budget.exact_crossbar_bits

    @property
    def ternary_crossbar_percent(self) -> float:
        """Ternary-match crossbar utilization in percent."""
        return 100.0 * self.ternary_crossbar_bits_used / self.budget.ternary_crossbar_bits


class ResourceExhausted(RuntimeError):
    """Raised when a program requests more of a resource than the stage has."""


@dataclass
class ResourceReport:
    """Chip-level utilization summary in the shape of the paper's Table 1."""

    sram_avg_percent: float
    sram_peak_percent: float
    tcam_percent: float
    vliw_percent: float
    exact_crossbar_percent: float
    ternary_crossbar_percent: float
    phv_percent: float
    per_stage_sram_percent: List[float] = field(default_factory=list)

    @classmethod
    def from_stages(cls, stages: List[StageResources], phv_bits_used: int,
                    phv_bits_budget: int) -> "ResourceReport":
        """Aggregate per-stage allocations into a chip-level report.

        Stages that use no resources at all still count toward the
        averages, matching how the paper reports average per-stage SRAM
        across the match-action unit.
        """
        if not stages:
            raise ValueError("need at least one stage to report on")
        sram = [stage.sram_percent for stage in stages]
        used_stages = [s for s in stages if s.sram_bytes_used > 0] or stages
        sram_used = [stage.sram_percent for stage in used_stages]
        return cls(
            sram_avg_percent=sum(sram_used) / len(sram_used),
            sram_peak_percent=max(sram),
            tcam_percent=sum(s.tcam_percent for s in stages) / len(stages),
            vliw_percent=sum(s.vliw_percent for s in stages) / len(stages),
            exact_crossbar_percent=sum(s.exact_crossbar_percent for s in stages) / len(stages),
            ternary_crossbar_percent=sum(s.ternary_crossbar_percent for s in stages) / len(stages),
            phv_percent=100.0 * phv_bits_used / phv_bits_budget,
            per_stage_sram_percent=sram,
        )
