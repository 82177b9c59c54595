"""Unit tests for 5-tuple flows and the PCAP reader/writer."""

import pytest

from repro.packet.flows import FLOW_PERIOD, FiveTuple, FlowGenerator
from repro.packet.ipv4 import PROTO_UDP, IPv4Address
from repro.packet.packet import Packet
from repro.packet.pcap import PcapReader, read_pcap, write_pcap


def _tuple(src="10.0.0.1", dst="10.0.0.2", sport=1000, dport=2000):
    return FiveTuple(
        src_ip=IPv4Address.from_string(src),
        dst_ip=IPv4Address.from_string(dst),
        protocol=PROTO_UDP,
        src_port=sport,
        dst_port=dport,
    )


class TestFiveTuple:
    def test_stable_hash_is_deterministic_and_spreads(self):
        flow = _tuple()
        assert flow.stable_hash() == _tuple().stable_hash()
        other = _tuple(sport=1001)
        assert flow.stable_hash() != other.stable_hash()

    def test_str_contains_ports(self):
        assert "1000" in str(_tuple())


class TestFlowGenerator:
    def test_generates_requested_count(self):
        generator = FlowGenerator(flow_count=100)
        flows = generator.flows()
        assert len(flows) == 100
        assert len(set(flows)) == 100

    def test_flow_index_wraps(self):
        generator = FlowGenerator(flow_count=10)
        assert generator.flow(3) == generator.flow(13)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            FlowGenerator(flow_count=0)

    def test_population_is_lazy_and_stable(self):
        flows = FlowGenerator(flow_count=100).flows()
        assert flows.slots == [None] * 100
        first = flows[7]
        assert flows[7] is first and flows[-93] is first and flows[5:9][2] is first
        assert flows.wrap(107) is first
        assert sum(flow is not None for flow in flows.slots) == 1

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            # Died at packet 5536 of the run with "src_port out of range".
            ({"flow_count": 10_000, "base_src_port": 60_000}, "base_src_port"),
            ({"flow_count": 100_000, "base_src_port": 15_537}, "base_src_port"),
            ({"base_src_port": -1}, "base_src_port"),
            ({"base_dst_port": 65_521}, "base_dst_port"),
            ({"base_dst_port": -1}, "base_dst_port"),
        ],
    )
    def test_rejects_ports_outside_16_bits(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            FlowGenerator(**kwargs)

    def test_accepts_ports_up_to_65535(self):
        flows = FlowGenerator(
            flow_count=5_536, base_src_port=60_000, base_dst_port=65_520
        ).flows()
        assert flows[-1].src_port == 65_535
        assert flows[15].dst_port == 65_535
        assert FlowGenerator(flow_count=100_000, base_src_port=15_536).flows()[49_999].src_port == 65_535

    def test_flow_count_stops_at_the_period(self):
        # Flow i + FLOW_PERIOD would equal flow i: a larger population
        # is not one of distinct flows.
        generator = FlowGenerator(flow_count=FLOW_PERIOD)
        assert FLOW_PERIOD == 650_000
        assert generator._make_flow(FLOW_PERIOD) == generator.flow(0)
        assert generator.flows()[-1] != generator.flow(0)
        with pytest.raises(ValueError, match="flow_count"):
            FlowGenerator(flow_count=FLOW_PERIOD + 1)


class TestPcap:
    def test_write_and_read_round_trip(self, tmp_path):
        path = tmp_path / "sample.pcap"
        frames = [(0.001 * i, Packet.udp(total_size=100 + i).to_bytes()) for i in range(5)]
        assert write_pcap(path, frames) == 5
        records = read_pcap(path)
        assert len(records) == 5
        for (timestamp, data), record in zip(frames, records):
            assert record.data == data
            assert record.timestamp == pytest.approx(timestamp, abs=1e-6)

    def test_reader_rejects_non_pcap(self, tmp_path):
        path = tmp_path / "garbage.pcap"
        path.write_bytes(b"not a pcap file at all........")
        with pytest.raises(ValueError):
            PcapReader(path)

    def test_reader_rejects_a_non_ethernet_linktype(self, tmp_path):
        path = tmp_path / "meta.pcap"
        write_pcap(path, [(0.0, b"\x00" * 60)])
        with PcapReader(path) as reader:
            assert len(list(reader)) == 1
        header = bytearray(path.read_bytes())
        header[20:24] = (101).to_bytes(4, "little")  # LINKTYPE_RAW: bare IP
        path.write_bytes(bytes(header))
        with pytest.raises(ValueError, match="link type 101"):
            PcapReader(path)
