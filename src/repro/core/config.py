"""Configuration for PayloadPark deployments.

The prototype exposes a handful of policy knobs (§5, §6.1): which ports
are PayloadPark-enabled, how much switch SRAM is reserved, the expiry
threshold, how many payload bytes are parked per packet (160, or 384
with recirculation), and the minimum payload size worth splitting.
:class:`PayloadParkConfig` collects them; :class:`NfServerBinding` maps
traffic ports to the NF server they feed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import PayloadParkConfigError, require_integer, require_positive_finite

#: Bytes of payload the prototype parks per packet without recirculation.
DEFAULT_PARKED_BYTES = 160

#: Bytes parked when one recirculation pass is used (§6.2.5).
RECIRCULATION_PARKED_BYTES = 384

#: The largest MAX_CLK: the header's generation clock is a 16-bit field
#: and counts ``0 .. clock_max - 1``.
CLOCK_MAX_LIMIT = 1 << 16

#: The largest explicit table capacity: the header's table index is a
#: 16-bit field (``LookupTable`` refuses more, derived sizes included).
TABLE_ENTRIES_LIMIT = 0xFFFF


@dataclass(frozen=True)
class NfServerBinding:
    """Binds PayloadPark-enabled traffic ports to one NF server port.

    Attributes
    ----------
    name:
        Human-readable binding name (used to key counters).
    ingress_ports:
        Front-panel ports whose traffic is split and forwarded to the NF
        server (the paper uses two traffic-generator ports per server so
        the generator can saturate the server-facing link).
    nf_port:
        Port connected to the NF server.  Packets arriving on it are
        treated as Merge (or Explicit Drop) requests.
    default_egress_port:
        Where merged packets go when no L2 entry matches their
        destination MAC (in the paper's testbed, back to the traffic
        generator that measures goodput).
    memory_weight:
        Relative share of the pipe's reserved lookup-table memory this
        binding receives under static slicing (§6.2.3).
    """

    name: str
    ingress_ports: Tuple[int, ...]
    nf_port: int
    default_egress_port: int
    memory_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.ingress_ports:
            raise ValueError(f"binding {self.name!r} needs at least one ingress port")
        if self.nf_port in self.ingress_ports:
            raise ValueError(f"binding {self.name!r}: NF port cannot also be an ingress port")
        if self.memory_weight <= 0:
            raise ValueError(f"binding {self.name!r}: memory_weight must be positive")


def _integer(minimum: int, maximum: Optional[int] = None) -> Callable[[str, object], None]:
    return partial(
        require_integer, minimum=minimum, maximum=maximum, error=PayloadParkConfigError
    )


def _optional_entries(name: str, value: object) -> None:
    if value is not None:
        require_integer(name, value, 1, PayloadParkConfigError, TABLE_ENTRIES_LIMIT)


def _fraction(name: str, value: object) -> None:
    require_positive_finite(name, value, PayloadParkConfigError)
    if value > 1.0:
        raise PayloadParkConfigError(f"{name} must be at most 1, got {value}")


def _domain(check: Callable[[str, object], None], **kwargs):
    """A field whose values *check* holds to its domain (see :data:`DOMAINS`)."""
    return field(metadata={"domain": check}, **kwargs)


@dataclass
class PayloadParkConfig:
    """Tunable parameters of a PayloadPark deployment.

    Attributes
    ----------
    parked_bytes:
        Payload bytes parked per packet (160 without recirculation,
        384 with one recirculation pass).
    min_split_payload:
        Payloads smaller than this are not split (the prototype uses the
        parked size, 160 bytes, to avoid wasting a whole table slot on a
        partial payload).
    expiry_threshold:
        MAX_EXP — how many times the table index must revisit an occupied
        slot before its payload is evicted (1 = aggressive, 10 =
        conservative).
    sram_fraction:
        Fraction of the pipe's stateful SRAM reserved for the lookup
        table (the paper's macro-benchmarks use ≈ 26 %; the 8-server
        setup uses ≈ 40 %).
    table_entries:
        Explicit lookup-table capacity (entries).  When ``None`` the
        capacity is derived from ``sram_fraction`` and the stage budget.
    payload_block_bytes:
        Width of one payload block, i.e. the bytes stored per MAT-local
        register array (the 2-D payload table's cell size).
    enable_recirculation:
        Allow a second pipeline pass to park bytes beyond the first
        pass's capacity.
    enable_explicit_drops:
        Accept OP=1 packets from a (lightly modified) NF framework that
        explicitly releases parked payloads of dropped packets.
    clock_max:
        MAX_CLK — generation counter wrap-around value.
    split_enabled:
        Master switch; with ``False`` the program behaves exactly like
        the baseline except for header overhead accounting (useful for
        fallback-mode tests).
    """

    parked_bytes: int = _domain(_integer(1), default=DEFAULT_PARKED_BYTES)
    min_split_payload: int = _domain(_integer(0), default=DEFAULT_PARKED_BYTES)
    expiry_threshold: int = _domain(_integer(1), default=1)
    sram_fraction: float = _domain(_fraction, default=0.26)
    table_entries: Optional[int] = _domain(_optional_entries, default=None)
    payload_block_bytes: int = _domain(_integer(1), default=16)
    enable_recirculation: bool = False
    enable_explicit_drops: bool = False
    clock_max: int = _domain(_integer(2, CLOCK_MAX_LIMIT), default=CLOCK_MAX_LIMIT)
    split_enabled: bool = True
    bindings: List[NfServerBinding] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Every value a run reads per packet is held to its domain here,
        # once: the split kernel builds its header without re-checking
        # the 16-bit tag fields (``repro.core.split``).
        for name, check in DOMAINS.items():
            check(name, getattr(self, name))

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    def first_pass_capacity_bytes(self, payload_stage_count: int) -> int:
        """Bytes that fit in one pipeline pass given *payload_stage_count* stages."""
        return payload_stage_count * self.payload_block_bytes

    @classmethod
    def with_recirculation(cls, **kwargs) -> "PayloadParkConfig":
        """Convenience constructor for the §6.2.5 recirculation setup."""
        kwargs.setdefault("parked_bytes", RECIRCULATION_PARKED_BYTES)
        kwargs.setdefault("enable_recirculation", True)
        return cls(**kwargs)

    def derived_table_entries(self, stage_sram_bytes: int, memory_weight_share: float = 1.0) -> int:
        """Compute the lookup-table capacity for one binding.

        The payload table is striped across the payload stages, so each
        stage holds ``entries * payload_block_bytes`` bytes of payload
        plus (in the metadata stage) ``entries * 4`` bytes of clock +
        expiry state.  We size entries so a payload stage consumes
        ``sram_fraction`` of its SRAM budget, then apply the binding's
        share under static slicing.

        Parameters
        ----------
        stage_sram_bytes:
            SRAM budget of a single stage.
        memory_weight_share:
            This binding's fraction of the reserved memory (1.0 when the
            pipe serves a single NF server).
        """
        if self.table_entries is not None:
            entries = int(self.table_entries * memory_weight_share)
        else:
            reserved_per_stage = self.sram_fraction * stage_sram_bytes
            entries = int(reserved_per_stage // self.payload_block_bytes * memory_weight_share)
        return max(entries, 1)


#: Field -> its domain check, raising :class:`PayloadParkConfigError`.
#: The config runs every one at construction; a campaign spec runs the
#: ones it overrides (``repro.experiments.runner.check_override``).
DOMAINS: Dict[str, Callable[[str, object], None]] = {
    spec.name: spec.metadata["domain"]
    for spec in fields(PayloadParkConfig)
    if "domain" in spec.metadata
}
