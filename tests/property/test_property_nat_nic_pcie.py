"""The NAT and the NF server's NIC / PCIe cost rows against the code they
replaced.

The NAT keeps two int tables instead of building a ``FiveTuple`` and a
``NatBinding`` per flow; the NF server looks a frame's NIC and PCIe
costs up in one row per wire size instead of dividing per frame.
Neither may change a single result, so each is held here to its
predecessor: the NAT to a copy of the object-per-binding ``Nat``
(``_ObjectNat``), driven through the same random interleaving of packets
and ``binding_for`` calls, and the cost rows to the closed-form formula
at every wire size.  The copy carries one later, deliberate change of
both: a packet that would open a flow in a full port table is dropped,
where it used to raise.
"""

import sys
from typing import Dict, Optional
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nf.nat as nat_module
from repro.netsim.nic import NIC_10GE, NIC_40GE, NicSpec
from repro.netsim.pcie import PcieSpec
from repro.nf.base import NetworkFunction, NfResult
from repro.nf.nat import Nat, NatBinding, NatPortExhausted
from repro.packet.flows import FiveTuple, FlowKey
from repro.packet.ipv4 import PROTO_UDP, IPv4Address
from repro.packet.packet import Packet

PORT_LOW, PORT_HIGH = nat_module.PORT_LOW, nat_module.PORT_HIGH


class _ObjectNat(NetworkFunction):
    """The NAT as it was before the int tables: one object per binding."""

    def __init__(
        self,
        external_ip: str = "203.0.113.1",
        lookup_cycles: int = 80,
        rewrite_cycles: int = 60,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name or "NAT")
        self.external_ip = IPv4Address.from_string(external_ip)
        self.lookup_cycles = lookup_cycles
        self.rewrite_cycles = rewrite_cycles
        self._bindings: Dict[FlowKey, NatBinding] = {}
        self._reverse: Dict[int, NatBinding] = {}
        self._next_port = PORT_LOW

    def _allocate_port(self) -> int:
        span = PORT_HIGH - PORT_LOW + 1
        if len(self._reverse) >= span:
            raise NatPortExhausted("all external NAT ports are in use")
        port = self._next_port
        while port in self._reverse:
            port = PORT_LOW + (port + 1 - PORT_LOW) % span
        self._next_port = PORT_LOW + (port + 1 - PORT_LOW) % span
        return port

    def binding_for(self, flow: FiveTuple) -> NatBinding:
        key = flow.key()
        return self._bindings.get(key) or self._bind(key, flow)

    def _bind(self, key: FlowKey, flow: FiveTuple) -> NatBinding:
        binding = NatBinding(
            internal=flow,
            external_ip=self.external_ip,
            external_port=self._allocate_port(),
        )
        self._bindings[key] = binding
        self._reverse[binding.external_port] = binding
        return binding

    @property
    def active_bindings(self) -> int:
        return len(self._bindings)

    def process(self, packet: Packet) -> NfResult:
        cycles = self.base_cycles + self.lookup_cycles
        ip = packet.ip
        l4 = packet.l4
        if ip is None or l4 is None:
            return self.forward(cycles)
        if ip.dst.value == self.external_ip.value:
            binding = self._reverse.get(l4.dst_port)
            if binding is None:
                return self.drop(cycles, reason="no NAT binding for reverse flow")
            ip.dst = binding.internal.src_ip
            l4.dst_port = binding.internal.src_port
            return self.forward(cycles + self.rewrite_cycles)
        key = (ip.src.value, ip.dst.value, ip.protocol, l4.src_port, l4.dst_port)
        binding = self._bindings.get(key)
        if binding is None:
            if len(self._reverse) > PORT_HIGH - PORT_LOW:
                return self.drop(cycles, reason="NAT ports exhausted")
            binding = self._bind(
                key, FiveTuple(ip.src, ip.dst, ip.protocol, l4.src_port, l4.dst_port)
            )
        ip.src = binding.external_ip
        l4.src_port = binding.external_port
        return self.forward(cycles + self.rewrite_cycles)


address_strategy = st.builds(IPv4Address, st.integers(min_value=1, max_value=0xFFFFFFFE))
flow_strategy = st.builds(
    FiveTuple,
    src_ip=address_strategy,
    dst_ip=address_strategy,
    protocol=st.just(PROTO_UDP),
    src_port=st.integers(min_value=1, max_value=65_535),
    dst_port=st.integers(min_value=1, max_value=65_535),
)
# Each step names a flow by index into the drawn pool, so flows repeat.
step_strategy = st.one_of(
    st.tuples(st.just("outbound"), st.integers(min_value=0, max_value=15)),
    st.tuples(st.just("binding_for"), st.integers(min_value=0, max_value=15)),
    # Reverse traffic to the first allocated ports (known once bound)
    # or to any port at all (almost always unknown).
    st.tuples(
        st.just("reverse"),
        st.one_of(
            st.integers(min_value=PORT_LOW, max_value=PORT_LOW + 15),
            st.integers(min_value=0, max_value=65_535),
        ),
    ),
)


def _packet(step, flows, external_ip):
    kind, value = step
    if kind == "reverse":
        return Packet.udp(
            src_ip="198.51.100.7", dst_ip=str(external_ip), src_port=443,
            dst_port=value, total_size=96,
        )
    flow = flows[value % len(flows)]
    return Packet.udp(
        src_ip=str(flow.src_ip), dst_ip=str(flow.dst_ip), src_port=flow.src_port,
        dst_port=flow.dst_port, total_size=96,
    )


def _apply(nat, step, flows):
    """What one step does to *nat*: its result (or exception) and the frame."""
    kind, value = step
    try:
        if kind == "binding_for":
            return nat.binding_for(flows[value % len(flows)]), None
        packet = _packet(step, flows, nat.external_ip)
        return nat(packet), packet.to_bytes()
    except NatPortExhausted as error:
        return ("exhausted", str(error)), None


class TestNatAgainstTheObjectNat:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(flow_strategy, min_size=1, max_size=16, unique_by=FiveTuple.key),
        st.lists(step_strategy, min_size=1, max_size=60),
        st.sampled_from([PORT_LOW + 3, PORT_LOW + 7, PORT_HIGH]),
    )
    def test_every_step_matches(self, flows, steps, port_high):
        # A small span runs out of ports within the drawn steps: both
        # NATs must refuse the same flow at the same step, and go on
        # serving the flows they already bound.
        this_module = sys.modules[__name__]
        with mock.patch.object(nat_module, "PORT_HIGH", port_high), \
                mock.patch.object(this_module, "PORT_HIGH", port_high):
            ints, objects = Nat(), _ObjectNat()
            for step in steps:
                assert _apply(ints, step, flows) == _apply(objects, step, flows), step
                assert ints.active_bindings == objects.active_bindings
                assert ints.packets_dropped == objects.packets_dropped

    def test_a_small_span_is_exhausted_at_the_same_flow(self):
        flows = [
            FiveTuple(IPv4Address(0x0A000001 + i), IPv4Address(0x0A020001), PROTO_UDP, 1000 + i, 80)
            for i in range(6)
        ]
        steps = [("outbound", i) for i in range(6)] + [("binding_for", 1), ("outbound", 5)]
        this_module = sys.modules[__name__]
        with mock.patch.object(nat_module, "PORT_HIGH", PORT_LOW + 3), \
                mock.patch.object(this_module, "PORT_HIGH", PORT_LOW + 3):
            results = [
                [_apply(nat, step, flows)[0] for step in steps] for nat in (Nat(), _ObjectNat())
            ]
        assert results[0] == results[1]
        dropped = [
            i for i, result in enumerate(results[0])
            if isinstance(result, NfResult) and result.reason == "NAT ports exhausted"
        ]
        assert dropped == [4, 5, 7]


def _closed_form_ns(nbytes, gbps):
    return int(round(nbytes * 8 / gbps))


LOPSIDED = NicSpec("lopsided", 25.0, effective_rx_gbps=21.3, effective_tx_gbps=17.9)
SLOW_PCIE = PcieSpec(bandwidth_gbps=7.9, per_packet_overhead_bytes=24, dma_latency_ns=0)


class TestDelayTablesAgainstTheFormula:
    """Every size twice (a row fill, then a read), once queued behind the
    previous frame and once on an idle server: the host-ready and NIC-tx
    end times, the cursors and the PCIe byte counters equal the closed
    form.  The chain drops the queued frame of every third size, so the
    receive and transmit counters part ways."""

    SIZES = range(60, 9217)

    def _sweep(self, rig, nic, pcie):
        server = rig.server
        now = rx_free = tx_free = rx_bytes = tx_bytes = 0
        for repeat, size in enumerate(s for s in self.SIZES for _ in range(2)):
            queued = bool(repeat % 2)
            forwarded = not (queued and size % 3 == 0)
            # Queued: both NIC directions are still busy with the last frame.
            now = now + 1 if queued else max(rx_free, tx_free) + 1_000
            moved = size + pcie.per_packet_overhead_bytes
            pcie_ns = pcie.dma_latency_ns + _closed_form_ns(moved, pcie.bandwidth_gbps)
            assert (now < rx_free and now + pcie_ns < tx_free) == queued
            rx_free = max(now, rx_free) + _closed_form_ns(size, nic.effective_rx_gbps)
            rx_bytes += moved
            expected = [rx_free + nic.rx_processing_ns + pcie_ns]
            if forwarded:
                tx_free = max(now + pcie_ns, tx_free) + _closed_form_ns(size, nic.effective_tx_gbps)
                tx_bytes += moved
                expected.append(tx_free)
            assert rig.hop(now, size, forwarded) == expected
            assert (server._rx_free_at_ns, server._tx_free_at_ns) == (rx_free, tx_free)
            stats = server.stats()
            assert (stats["pcie_rx_bytes"], stats["pcie_tx_bytes"]) == (rx_bytes, tx_bytes)
        assert rx_bytes > tx_bytes

    def test_nic_rows(self, server_rig):
        for nic in (NIC_10GE, NIC_40GE, LOPSIDED):
            self._sweep(server_rig(nic, PcieSpec()), nic, PcieSpec())

    def test_pcie_rows(self, server_rig):
        for pcie in (PcieSpec(), SLOW_PCIE):
            self._sweep(server_rig(NIC_10GE, pcie), NIC_10GE, pcie)
