"""Property-based tests for the lookup table and the Split/Merge dataplane.

These check the invariants that make PayloadPark correct:

* the metadata table's occupancy always equals successful Splits minus
  Merges, Explicit Drops and evictions;
* a payload read back by Merge is byte-identical to the payload parked
  by Split, for any packet size and parking configuration;
* a Merge for an evicted slot never returns another packet's payload —
  it is always detected as a premature eviction.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.lookup_table import LookupTable
from repro.core.program import PayloadParkProgram
from repro.packet.packet import ETHERNET_UDP_HEADER_BYTES, Packet
from repro.switchsim.context import PipelinePacket
from repro.switchsim.pipeline import Pipeline


def _ctx():
    return PipelinePacket(packet=Packet.udp(total_size=64), ingress_port=0)


def _binding():
    return NfServerBinding(name="srv", ingress_ports=(0, 1), nf_port=2, default_egress_port=0)


class TestLookupTableInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=1, max_value=5),
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=120),
    )
    def test_occupancy_never_exceeds_capacity(self, entries, max_exp, operations):
        table = LookupTable(
            "t", Pipeline(stage_count=12), entries=entries, parked_bytes=160
        )
        clock = 0
        live = {}
        for op in operations:
            index = op % entries
            clock = (clock + 1) % 65_536
            if op % 2 == 0:
                result = table.probe_and_claim(_ctx(), index, clock, max_exp)
                if result.claimed:
                    live[index] = clock
            else:
                stored_clock = live.get(index)
                if stored_clock is not None:
                    release = table.validate_and_release(_ctx(), index, stored_clock)
                    if release.valid:
                        live.pop(index)
            assert 0 <= table.occupancy() <= entries

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=64),
        st.integers(min_value=160, max_value=384),
        st.integers(min_value=0, max_value=500),
        st.booleans(),
    )
    def test_stored_payload_round_trips_exactly(self, entries, parked_bytes, payload_len, plans):
        """Split parks the payload's first ``parked_bytes`` (all of a
        shorter one) in the row, in one pass or two; Merge restores
        them and empties the row — on the stage walk and on the kernels."""
        program = PayloadParkProgram(
            PayloadParkConfig(
                parked_bytes=parked_bytes,
                min_split_payload=0,
                enable_recirculation=parked_bytes > 160,
                table_entries=entries,
            ),
            bindings=[_binding()],
        )
        if plans:
            program.enable_fast_path()
        table = program.lookup_table()
        assert table.uses_second_pass == (parked_bytes > 160)
        rng = random.Random(entries * parked_bytes + payload_len)
        payload = bytes(rng.randrange(256) for _ in range(payload_len))
        packet = Packet.udp(payload=payload)
        original = packet.to_bytes()
        program.process(packet, ingress_port=0)
        index = packet.pp.tbl_idx
        assert packet.pp.enb == 1
        assert table.peek_payload(index) == payload[:parked_bytes]
        assert bytes(packet.payload) == payload[parked_bytes:]
        _egress, _owed, reason = program.process(packet, ingress_port=2)
        assert reason is None and packet.to_bytes() == original
        assert table.peek_payload(index) == b""


class TestProgramInvariants:
    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=64, max_value=1400), min_size=5, max_size=60
        ),
        st.integers(min_value=2, max_value=32),
        st.integers(min_value=1, max_value=4),
    )
    def test_counter_accounting_balances(self, sizes, table_entries, expiry):
        """splits == merges + evictions + outstanding, with no payload corruption."""
        program = PayloadParkProgram(
            PayloadParkConfig(table_entries=table_entries, expiry_threshold=expiry),
            bindings=[_binding()],
        )
        in_flight = []
        originals = {}
        for index, size in enumerate(sizes):
            packet = Packet.udp(total_size=max(size, ETHERNET_UDP_HEADER_BYTES))
            originals[packet.packet_id] = packet.to_bytes()
            program.process(packet, ingress_port=index % 2)
            in_flight.append(packet)
            # Return packets to the switch in FIFO order every few arrivals.
            if len(in_flight) >= 3:
                returning = in_flight.pop(0)
                _egress, _owed, reason = program.process(returning, ingress_port=2)
                if reason is None:
                    assert returning.to_bytes() == originals[returning.packet_id]
        counters = program.counters_for()
        outstanding = program.lookup_table().occupancy()
        assert counters.splits == counters.merges + counters.evictions + outstanding
        assert counters.outstanding_payloads == outstanding
        assert counters.premature_evictions <= counters.evictions

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=4))
    def test_premature_eviction_never_corrupts_payload(self, table_entries):
        """Overloading a tiny table must drop stale packets, never mix payloads."""
        program = PayloadParkProgram(
            PayloadParkConfig(table_entries=table_entries, expiry_threshold=1),
            bindings=[_binding()],
        )
        packets = [Packet.udp(total_size=512 + i) for i in range(table_entries * 3)]
        originals = {p.packet_id: p.to_bytes() for p in packets}
        for packet in packets:
            program.process(packet, ingress_port=0)
        for packet in packets:
            _egress, _owed, reason = program.process(packet, ingress_port=2)
            if reason is None:
                assert packet.to_bytes() == originals[packet.packet_id]
        counters = program.counters_for()
        assert counters.premature_evictions > 0
        assert counters.merges + counters.premature_evictions + counters.merge_enb_zero == len(
            packets
        )
