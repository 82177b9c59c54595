"""Trusted constructors against the validating ones they stand in for.

Two per-packet objects are built without their dataclass ``__init__`` /
``__post_init__``: a generated flow (``FlowGenerator._make_flow``) and a
parked packet's PayloadPark header (the split kernel, which reads the
tag's CRC from the memo or computes it with ``tag_crc``).  Each skips a
range check that declaration already makes, so each must equal — under
``==`` and ``hash`` for the frozen flow — what the validating
constructor builds from the same values.  The header is checked on memo
hits and misses alike, and merge, which checks tags the same way, must
accept it either way and refuse it with one CRC bit flipped.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.header import OP_MERGE, TAG_CLK_BITS, TAG_CRCS, PayloadParkHeader
from repro.core.program import PayloadParkProgram
from repro.packet import flows
from repro.packet.flows import FiveTuple, FlowGenerator
from repro.packet.ipv4 import PROTO_TCP, PROTO_UDP, IPv4Address
from repro.packet.packet import Packet

BINDING = NfServerBinding(name="srv0", ingress_ports=(0, 1), nf_port=2, default_egress_port=0)

#: Dotted quads, the top of the address space included (where the
#: derivation wraps past 255.255.255.255).
quads = st.integers(min_value=0, max_value=0xFFFFFFFF).map(lambda value: str(IPv4Address(value)))


def _validated_flow(generator, index):
    """Flow *index* through the validating constructors (the old code)."""
    return FiveTuple(
        src_ip=IPv4Address(
            (generator._src_base + (index % flows._SRC_HOSTS) + 1) & 0xFFFFFFFF
        ),
        dst_ip=IPv4Address(
            (generator._dst_base + (index % flows._DST_HOSTS) + 1) & 0xFFFFFFFF
        ),
        protocol=generator.protocol,
        src_port=generator.base_src_port + (index % flows._SRC_PORTS),
        dst_port=generator.base_dst_port + (index % flows._DST_PORTS),
    )


@st.composite
def generators(draw):
    flow_count = draw(st.integers(min_value=1, max_value=flows.FLOW_PERIOD))
    src_ports = min(flow_count, flows._SRC_PORTS)
    return FlowGenerator(
        flow_count=flow_count,
        src_subnet=draw(quads),
        dst_subnet=draw(quads),
        protocol=draw(st.sampled_from([PROTO_UDP, PROTO_TCP])),
        base_src_port=draw(st.integers(min_value=0, max_value=0x10000 - src_ports)),
        base_dst_port=draw(st.integers(min_value=0, max_value=0x10000 - flows._DST_PORTS)),
    )


#: One packet's fate: split with the tag memoized?  merged with it
#: memoized?  one CRC bit flipped on the way back?
packet_steps = st.tuples(st.booleans(), st.booleans(), st.booleans())


class TestTrustedConstructors:
    @settings(max_examples=60, deadline=None)
    @example(  # both derivations wrap past 255.255.255.255
        generator=FlowGenerator(src_subnet="255.255.255.255", dst_subnet="255.255.255.1"),
        indices=[0, 253, 254, 64_999],
        table_entries=3,
        clock_max=1 << 16,
        start_clk=(1 << 16) - 2,
        steps=[(True, True, False), (False, False, False), (True, False, True)],
    )
    @given(
        generators(),
        st.lists(st.integers(min_value=0, max_value=2 * flows.FLOW_PERIOD), max_size=8),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=2, max_value=1 << 16),
        st.integers(min_value=0, max_value=(1 << 16) - 1),
        st.lists(packet_steps, min_size=1, max_size=12),
    )
    def test_flows_and_split_headers(
        self, generator, indices, table_entries, clock_max, start_clk, steps
    ):
        for index in indices:
            flow = generator._make_flow(index)
            validated = _validated_flow(generator, index)
            assert flow == validated
            assert hash(flow) == hash(validated)
            assert (flow.src_ip, hash(flow.src_ip)) == (validated.src_ip, hash(validated.src_ip))

        program = PayloadParkProgram(
            PayloadParkConfig(table_entries=table_entries, clock_max=clock_max),
            bindings=[BINDING],
        )
        program.enable_fast_path()
        (split,) = program._split_paths
        idx_cell, clk_cell = split.tagger.cells()
        clk_cell[0] = start_clk % clock_max
        counters = program.counters.for_binding(BINDING.name)
        for split_hit, merge_hit, corrupt in steps:
            tbl_idx = (idx_cell[0] + 1) % table_entries
            clk = (clk_cell[0] + 1) % clock_max
            key = (tbl_idx << TAG_CLK_BITS) | clk
            expected = PayloadParkHeader(enb=1, op=OP_MERGE, tbl_idx=tbl_idx, clk=clk).seal()
            if not split_hit:
                del TAG_CRCS[key]
            packet = Packet.udp(total_size=512)
            original = packet.to_bytes()
            program.process(packet, BINDING.ingress_ports[0])
            assert packet.pp == expected
            assert type(packet.pp) is PayloadParkHeader
            assert key in TAG_CRCS

            if not merge_hit:
                del TAG_CRCS[key]
            if corrupt:
                packet.pp.crc ^= 1
            failures = counters.tag_validation_failures
            _egress, _owed, reason = program.process(packet, BINDING.nf_port)
            assert (reason is not None) == corrupt
            assert counters.tag_validation_failures == failures + corrupt
            if not corrupt:
                assert packet.to_bytes() == original
