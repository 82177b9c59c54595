"""Port plans against the stage walk: a seeded differential.

A port plan (``SplitPath.compile_plan`` / ``MergePath.compile_plan``)
is admissible only if nothing observable tells it from the reference
stage walk.  Two identical PayloadPark programs — one on plans, one
walking its tables with the register guard on — are fed the same random
interleaving of everything an ingress port can see, and compared packet
by packet and, at several points mid-stream, counter by counter and
slot by slot.
"""

import random

import pytest

from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.header import OP_EXPLICIT_DROP, PayloadParkHeader
from repro.core.program import PayloadParkProgram
from repro.packet.packet import Packet
from repro.switchsim.mat import MatchActionTable

BINDINGS = [
    NfServerBinding(name="srv0", ingress_ports=(0, 1), nf_port=2, default_egress_port=0),
    NfServerBinding(name="srv1", ingress_ports=(3, 4), nf_port=5, default_egress_port=3),
]
UNBOUND_PORT = 7
STEPS = 1500
CHECKPOINT_EVERY = 125


class _Recorder:
    """Stands in for the flight recorder: keeps every hook call."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, hook):
        return lambda *args: self.calls.append((hook, args))


def _program(parked_bytes, plans):
    config = PayloadParkConfig(
        parked_bytes=parked_bytes,
        enable_recirculation=parked_bytes > 160,
        table_entries=12,  # 6 slots per binding: wraps, evicts, refuses
        expiry_threshold=2,
        clock_max=5,
    )
    program = PayloadParkProgram(config, bindings=BINDINGS)
    recorder = _Recorder()
    for path in (*program._split_paths, *program._merge_paths):
        path.obs_recorder = recorder
    if plans:
        program.enable_fast_path()
    return program, recorder


def _outcome(ctx, packet):
    return (
        ctx.egress_port,
        ctx.dropped,
        ctx.drop_reason,
        ctx.recirculations,
        ctx.recirculate_requested,
        packet.pp,
        packet.to_bytes(),
    )


def _state(program, recorder):
    asic = program.asic
    tables = {
        (pipe.index, table.name): (table.hit_count, table.miss_count)
        for pipe in asic.pipes
        for table in pipe.pipeline.tables()
    }
    passes = [
        (pipe.parser.parsed_packets, pipe.deparser.deparsed_packets, pipe.recirculated_packets)
        for pipe in asic.pipes
    ]
    slots = {
        name: [
            (table.peek_metadata(index), table.peek_payload(index))
            for index in range(table.entries)
        ]
        for name, table in program.lookup_tables.items()
    }
    return {
        "tables": tables,
        "passes": passes,
        "asic": (asic.processed_packets, asic.dropped_packets, dict(asic.drop_reasons)),
        "bank": {name: c.as_dict() for name, c in program.counters.counters.items()},
        "slots": slots,
        "taggers": {name: tagger.peek() for name, tagger in program.taggers.items()},
        "recorder": list(recorder.calls),
    }


def _noop_table(name, ingress_ports):
    return MatchActionTable(
        name=name,
        match=lambda ctx: False,
        action=lambda ctx: None,
        match_bits=8,
        ingress_ports=ingress_ports,
    )


@pytest.mark.parametrize("parked_bytes", [160, 384])
@pytest.mark.parametrize("seed", [91, 92, 93])
def test_plans_match_the_stage_walk(parked_bytes, seed):
    rng = random.Random(seed)
    fast, fast_recorder = _program(parked_bytes, plans=True)
    slow, slow_recorder = _program(parked_bytes, plans=False)
    at_nf = {binding.name: [] for binding in BINDINGS}  # (fast copy, slow copy)

    def send(packet, port):
        twin = packet.copy()
        fast_ctx = fast.process(packet, port)
        slow_ctx = slow.process(twin, port)
        assert _outcome(fast_ctx, packet) == _outcome(slow_ctx, twin)
        return fast_ctx, packet, twin

    def from_nf(binding, tamper=None):
        waiting = at_nf[binding.name]
        if not waiting:
            return
        pair = waiting.pop(rng.randrange(len(waiting)))
        if tamper is not None:
            for packet in pair:
                if packet.pp is not None:
                    tamper(packet.pp)
        packet, twin = pair
        fast_ctx = fast.process(packet, binding.nf_port)
        slow_ctx = slow.process(twin, binding.nf_port)
        assert _outcome(fast_ctx, packet) == _outcome(slow_ctx, twin)

    def explicit_drop(header):
        header.op = OP_EXPLICIT_DROP

    def corrupt_crc(header):
        header.crc ^= 0x1

    def out_of_range(header):
        header.tbl_idx = 60_000
        header.seal()

    for step in range(STEPS):
        binding = rng.choice(BINDINGS)
        action = rng.random()
        if action < 0.45:
            size = rng.choice([64, 128, 230, 300, 512, 800, 1400])
            ctx, packet, twin = send(
                Packet.udp(total_size=size, dst_mac="02:00:00:00:00:%02x" % rng.randrange(4)),
                rng.choice(binding.ingress_ports),
            )
            if not ctx.dropped:
                at_nf[binding.name].append((packet, twin))
        elif action < 0.80:
            from_nf(binding)
        elif action < 0.85:
            from_nf(binding, explicit_drop)
        elif action < 0.89:
            from_nf(binding, corrupt_crc)
        elif action < 0.93:
            from_nf(binding, out_of_range)
        elif action < 0.97:
            send(Packet.udp(total_size=rng.choice([64, 400])), binding.nf_port)  # no header
        else:
            send(Packet.udp(total_size=400), UNBOUND_PORT)

        if step == STEPS // 4:
            for program in (fast, slow):
                program.add_l2_entry("02:00:00:00:00:01", 9)
                program.config.expiry_threshold = 1
        if step == STEPS // 2:
            # A late table that cannot match on any bound port: plans stay fused.
            for program in (fast, slow):
                pipeline = program.asic.pipes[0].pipeline
                pipeline.stage(1).add_table(_noop_table("tap", frozenset((UNBOUND_PORT,))))
            send(Packet.udp(total_size=512), 0)
            assert fast._plans[0].counts
        if step == 3 * STEPS // 4:
            # One that might: every port of the pipe is back on the stage walk.
            for program in (fast, slow):
                pipeline = program.asic.pipes[0].pipeline
                pipeline.stage(3).add_table(_noop_table("anywhere", None))
            send(Packet.udp(total_size=512), 0)
            assert not fast._plans[0].counts
        if step % CHECKPOINT_EVERY == 0:
            assert _state(fast, fast_recorder) == _state(slow, slow_recorder)

    final = _state(fast, fast_recorder)
    assert final == _state(slow, slow_recorder)
    # The stream really exercised every outcome the plans fuse.
    bank = fast.counters.total()
    assert bank.splits and bank.merges and bank.evictions and bank.premature_evictions
    assert bank.explicit_drops and bank.merge_enb_zero and bank.split_disabled_table_occupied
    assert bank.split_disabled_small_payload and bank.tag_validation_failures
    assert {"payloadpark-tag-corrupt", "payloadpark-tag-out-of-range"} <= set(final["asic"][2])
    if parked_bytes > 160:
        assert final["passes"][0][2] > 0
