"""Property-based tests for the packet substrate (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.header import PayloadParkHeader
from repro.packet.checksum import internet_checksum, verify_internet_checksum
from repro.packet.crc import crc16, crc32
from repro.packet.ethernet import ETHERTYPE_ARP, EthernetHeader, MacAddress
from repro.packet.flows import FiveTuple
from repro.packet.ipv4 import PROTO_ICMP, PROTO_UDP, IPv4Address, IPv4Header
from repro.packet.packet import ETHERNET_UDP_HEADER_BYTES, Packet
from repro.packet.pool import FramePool
from repro.packet.udp import UdpHeader
from repro.traffic.pktgen import blacklisted_source, build_udp_frame

ip_strings = st.builds(
    lambda a, b, c, d: f"{a}.{b}.{c}.{d}",
    *(st.integers(min_value=0, max_value=255) for _ in range(4)),
)
ports = st.integers(min_value=0, max_value=65_535)
frame_sizes = st.integers(min_value=ETHERNET_UDP_HEADER_BYTES, max_value=1514)


class TestChecksumProperties:
    @given(st.binary(min_size=0, max_size=256))
    def test_checksum_with_itself_appended_verifies(self, data):
        # Real protocols place the checksum at a 16-bit boundary, so pad
        # odd-length data before appending it.
        if len(data) % 2:
            data += b"\x00"
        checksum = internet_checksum(data)
        assert verify_internet_checksum(data + checksum.to_bytes(2, "big"))

    @given(st.binary(min_size=0, max_size=256))
    def test_checksum_in_16_bit_range(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF

    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=0, max_value=63))
    def test_crc16_detects_any_single_byte_change(self, data, index):
        index %= len(data)
        mutated = bytearray(data)
        mutated[index] ^= 0xA5
        assert crc16(bytes(mutated)) != crc16(data)

    @given(st.binary(min_size=0, max_size=128))
    def test_crc32_deterministic(self, data):
        assert crc32(data) == crc32(data)


class TestHeaderRoundTrips:
    @given(st.integers(min_value=0, max_value=(1 << 48) - 1))
    def test_mac_round_trip(self, value):
        mac = MacAddress(value)
        assert MacAddress.from_string(str(mac)) == mac
        assert MacAddress.from_bytes(mac.to_bytes()) == mac

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_ipv4_address_round_trip(self, value):
        address = IPv4Address(value)
        assert IPv4Address.from_string(str(address)) == address

    @given(ip_strings, ip_strings, st.integers(min_value=20, max_value=1500))
    def test_ipv4_header_round_trip(self, src, dst, total_length):
        header = IPv4Header(
            src=IPv4Address.from_string(src),
            dst=IPv4Address.from_string(dst),
            total_length=total_length,
        )
        parsed = IPv4Header.from_bytes(header.to_bytes())
        assert (parsed.src, parsed.dst, parsed.total_length) == (
            header.src,
            header.dst,
            header.total_length,
        )

    @given(ports, ports, st.integers(min_value=8, max_value=1480))
    def test_udp_round_trip(self, sport, dport, length):
        header = UdpHeader(src_port=sport, dst_port=dport, length=length)
        assert UdpHeader.from_bytes(header.to_bytes()) == header


class TestPacketProperties:
    @settings(max_examples=50)
    @given(ip_strings, ip_strings, ports, ports, frame_sizes)
    def test_serialization_round_trip(self, src, dst, sport, dport, size):
        packet = Packet.udp(
            src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport, total_size=size
        )
        raw = packet.to_bytes()
        assert len(raw) == size
        assert Packet.from_bytes(raw).to_bytes() == raw

    @settings(max_examples=50)
    @given(frame_sizes, st.integers(min_value=0, max_value=1472))
    def test_park_restore_is_identity(self, size, parked_bytes):
        packet = Packet.udp(total_size=size)
        parked_bytes = min(parked_bytes, packet.payload_length)
        original = packet.to_bytes()
        parked = packet.park_leading_payload(parked_bytes)
        assert packet.wire_length == size - parked_bytes
        packet.restore_leading_payload(parked)
        assert packet.to_bytes() == original


flows = st.builds(
    lambda src, dst, sport, dport: FiveTuple(
        src_ip=IPv4Address(src),
        dst_ip=IPv4Address(dst),
        protocol=PROTO_UDP,
        src_port=sport,
        dst_port=dport,
    ),
    st.integers(min_value=1, max_value=0xFFFFFFFE),
    st.integers(min_value=1, max_value=0xFFFFFFFE),
    ports,
    ports,
)

SRC_MAC = "02:00:00:00:00:01"
DST_MAC = "02:00:00:00:00:02"


class TestFramePoolProperties:
    """Pooled (template-cloned) frames must be indistinguishable from
    reference-built frames — including after arbitrary header mutations,
    which must never leak back into the shared per-flow template."""

    @settings(max_examples=60)
    @given(flows, st.lists(frame_sizes, min_size=1, max_size=6))
    def test_pooled_frames_match_reference_builder(self, flow, sizes):
        pool = FramePool(SRC_MAC, DST_MAC)
        for size in sizes:
            pooled = pool.frame(size, flow)
            reference = build_udp_frame(size, flow, src_mac=SRC_MAC, dst_mac=DST_MAC)
            assert pooled.to_bytes() == reference.to_bytes()

    @settings(max_examples=60)
    @given(flows, st.integers(min_value=0, max_value=64_999), frame_sizes)
    def test_blacklist_override_matches_reference_builder(self, flow, index, size):
        pool = FramePool(SRC_MAC, DST_MAC)
        src = blacklisted_source(index)
        pooled = pool.frame(size, flow, src_ip=src)
        reference = build_udp_frame(
            size, flow, src_mac=SRC_MAC, dst_mac=DST_MAC, src_ip=str(src)
        )
        assert pooled.to_bytes() == reference.to_bytes()

    @settings(max_examples=60)
    @given(
        flows,
        frame_sizes,
        frame_sizes,
        st.integers(min_value=0, max_value=0xFFFFFFFF),
        st.integers(min_value=0, max_value=(1 << 48) - 1),
        ports,
        st.integers(min_value=0, max_value=255),
    )
    def test_header_mutations_do_not_corrupt_the_template(
        self, flow, first_size, second_size, new_dst_ip, new_dst_mac, new_port, ttl
    ):
        # Mutate every header layer of a pooled frame the way NFs do
        # (NAT rewrites, MAC swaps, TTL updates, payload parking)...
        pool = FramePool(SRC_MAC, DST_MAC)
        mutated = pool.frame(first_size, flow)
        mutated.ip.dst = IPv4Address(new_dst_ip)
        mutated.ip.ttl = ttl
        mutated.eth.dst = MacAddress(new_dst_mac)
        mutated.l4.dst_port = new_port
        if mutated.payload_length:
            mutated.park_leading_payload(mutated.payload_length)
        # ...then the next frame cloned from the same flow template must
        # still be byte-identical to the reference builder's output.
        fresh = pool.frame(second_size, flow)
        reference = build_udp_frame(
            second_size, flow, src_mac=SRC_MAC, dst_mac=DST_MAC
        )
        assert fresh.to_bytes() == reference.to_bytes()


# ---------------------------------------------------------------------- #
# The stored size is the derived size
# ---------------------------------------------------------------------- #


def _pooled_udp(flow, size, payload):
    return FramePool(SRC_MAC, DST_MAC).frame(size, flow)


def _parsed_udp(flow, size, payload):
    return Packet.from_bytes(
        build_udp_frame(size, flow, src_mac=SRC_MAC, dst_mac=DST_MAC).to_bytes()
    )


def _tcp(flow, size, payload):
    return Packet.tcp(
        src_ip=str(flow.src_ip), dst_ip=str(flow.dst_ip),
        src_port=flow.src_port, dst_port=flow.dst_port, payload=payload,
    )


def _ip_without_l4(flow, size, payload):
    # ICMP: an IPv4 header the parser leaves without an L4 header.
    packet = Packet.udp(payload=payload)
    packet.ip.protocol = PROTO_ICMP
    packet.ip.total_length -= UdpHeader.HEADER_LEN
    packet.l4 = None
    return packet


def _non_ip(flow, size, payload):
    eth = EthernetHeader(
        dst=MacAddress.from_string(DST_MAC),
        src=MacAddress.from_string(SRC_MAC),
        ethertype=ETHERTYPE_ARP,
    )
    return Packet(eth=eth, payload=payload)


frame_builders = st.sampled_from(
    [_pooled_udp, _parsed_udp, _tcp, _ip_without_l4, _non_ip]
)
small_payloads = st.binary(min_size=0, max_size=96)
pp_headers = st.builds(
    lambda enb, idx, clk: PayloadParkHeader(enb=enb, tbl_idx=idx, clk=clk).seal(),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFF),
)
size_changing_ops = st.one_of(
    st.tuples(st.just("park"), st.integers(min_value=0, max_value=1472)),
    st.tuples(st.just("restore"), st.none()),
    st.tuples(st.just("pp"), st.one_of(st.none(), pp_headers)),
    st.tuples(st.just("payload"), small_payloads),
    st.tuples(st.just("drop_l4"), st.none()),
    st.tuples(st.just("copy"), st.none()),
    st.tuples(st.just("reparse"), st.none()),
)


def _sync_length_fields(packet):
    """Make the IPv4 / UDP length fields cover the current payload, as a
    caller that swaps payloads must (park subtracts from them, and they
    have to stay serializable)."""
    payload_len = packet.payload_length
    if packet.ip is not None:
        packet.ip.total_length = (
            packet.header_length - EthernetHeader.HEADER_LEN + payload_len
        )
    if isinstance(packet.l4, UdpHeader):
        packet.l4.length = UdpHeader.HEADER_LEN + payload_len


def _assert_stored_size_is_derived_size(packet):
    assert packet.wire_length == len(packet.to_bytes())
    assert packet.useful_bytes == min(packet.header_length, ETHERNET_UDP_HEADER_BYTES)


class TestStoredSizeProperties:
    """``wire_length`` / ``useful_bytes`` are stored integers; whatever a
    caller does to a frame, they equal what the parts add up to."""

    @settings(max_examples=200, deadline=None)
    @given(
        frame_builders,
        flows,
        frame_sizes,
        small_payloads,
        st.lists(size_changing_ops, min_size=1, max_size=10),
    )
    def test_any_operation_sequence_keeps_the_stored_size_right(
        self, build, flow, size, payload, operations
    ):
        packet = build(flow, size, payload)
        _assert_stored_size_is_derived_size(packet)
        parked = []
        for operation, argument in operations:
            if operation == "park":
                parked.append(
                    packet.park_leading_payload(min(argument, packet.payload_length))
                )
            elif operation == "restore":
                if parked:
                    packet.restore_leading_payload(parked.pop())
            elif operation == "pp":
                packet.pp = argument
            elif operation == "payload":
                # Plain assignment, as user code does it.
                packet.payload = argument
                _sync_length_fields(packet)
            elif operation == "drop_l4":
                packet.l4 = None
            elif operation == "copy":
                clone = packet.copy()
                assert clone == packet
                packet = clone
            elif operation == "reparse":
                # An attached PayloadPark header parses back as payload
                # the length fields never counted.
                packet = Packet.from_bytes(packet.to_bytes())
                _sync_length_fields(packet)
            _assert_stored_size_is_derived_size(packet)
