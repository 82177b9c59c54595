"""Shared test fixtures."""

import pytest

from repro.netsim.nic import NIC_10GE
from repro.netsim.pcie import PcieSpec
from repro.netsim.server_node import NfServerNode
from repro.nf.base import NfResult, NfVerdict
from repro.nf.loadbalancer import MAGLEV_TABLES, PREFIX_STATES
from repro.nf.server import NfServerConfig
from repro.packet.flows import FLOW_SLOTS


def _empty_memos():
    for memo in (FLOW_SLOTS, MAGLEV_TABLES, PREFIX_STATES):
        memo.clear()


@pytest.fixture
def empty_memos():
    """Empty the process-wide derivation memos (flow slots, Maglev
    tables, host hash prefixes) before the test; the value is the
    function that empties them, to call again.  Emptying one only makes
    the next reader derive its values again."""
    _empty_memos()
    return _empty_memos


class _Clock:
    """An event loop stand-in: a settable clock that keeps what is scheduled."""

    def __init__(self):
        self.now = 0
        self.scheduled = []

    def schedule_at(self, when, callback, arg):
        self.scheduled.append(when)


class _FreeChain:
    """An NF chain that takes no time and returns the verdict a frame
    carries, so a frame's completion is its host-ready time."""

    config = NfServerConfig(service_jitter=0.0)
    chain = ()

    def bottleneck_service_ns(self):
        return 0.0

    def pipeline_latency_ns(self):
        return 0.0

    def process_packet(self, packet):
        return packet.result


class _Frame:
    __slots__ = ("wire_length", "result")
    pp = None

    def __init__(self, wire_length, forwarded):
        self.wire_length = wire_length
        self.result = NfResult(NfVerdict.FORWARD if forwarded else NfVerdict.DROP)


class ServerRig:
    """An ``NfServerNode`` on a stand-in clock with a zero-cost NF chain,
    driven one frame at a time through its receive and transmit cost
    rows."""

    def __init__(self, nic=NIC_10GE, pcie=PcieSpec()):
        self.server = NfServerNode(_Clock(), _FreeChain(), nic_spec=nic, cache_cost_model=True)
        self.server.pcie_spec = pcie  # read when a size's row is first filled

    def hop(self, now, wire_bytes, forwarded=True):
        """Receive a frame of *wire_bytes* at *now* and complete it at once.

        Returns the times it scheduled: its host-ready time, then its
        NIC-tx end unless the chain drops it (no Explicit Drop).
        """
        scheduled = self.server.env.scheduled
        before = len(scheduled)
        self.server.env.now = now
        frame = _Frame(wire_bytes, forwarded)
        self.server.handle_packet(frame, 0)
        self.server._complete(frame)
        return scheduled[before:]


@pytest.fixture
def server_rig():
    """The :class:`ServerRig` class, to build one per NIC / PCIe spec."""
    return ServerRig
