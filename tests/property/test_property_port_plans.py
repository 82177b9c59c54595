"""Port plans against the stage walk: a seeded differential.

A port plan (``SplitPath.compile_plan`` / ``MergePath.compile_plan`` /
``BaselineProgram._compile_plan``) is admissible only if nothing
observable tells it from the reference stage walk.  Two identical
programs — one on plans, one walking its tables (PayloadPark's with the
register guard on) — are fed the same random interleaving of everything
an ingress port can see, and compared packet by packet — each lookup
table slot's metadata and parked payload after every packet — and, at
several points mid-stream, PayloadPark counter by counter and by the
park, evict, merge, premature-eviction, explicit-drop and drop events
the flight recorder's switch seam reads off each side.

A plan returns the switch's egress decision, ``(egress_port, owed_ns,
drop_reason)``; the walk leaves a :class:`PipelinePacket`.  Each plan's
decision is held to the one :func:`_walk_decision` derives from that
record here, independently of ``Pipe.decision``: every drop reason, a
second (recirculated) pass of split and merge, and table installs
mid-stream, each of which must drop the plans at once.
"""

import random
from dataclasses import fields
from types import SimpleNamespace

import pytest

from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.header import OP_EXPLICIT_DROP, OP_MERGE, PayloadParkHeader
from repro.core.lookup_table import MetadataEntry
from repro.core.program import BaselineProgram, PayloadParkProgram
from repro.obs.trace import FlightRecorder
from repro.packet.packet import Packet
from repro.switchsim.mat import MatchActionTable
from repro.switchsim.pipe import Pipe

BINDINGS = [
    NfServerBinding(name="srv0", ingress_ports=(0, 1), nf_port=2, default_egress_port=0),
    NfServerBinding(name="srv1", ingress_ports=(3, 4), nf_port=5, default_egress_port=3),
]
#: The two above share pipe 0; the baseline run adds one in pipe 1.
OTHER_PIPE_BINDING = NfServerBinding(
    name="srv2", ingress_ports=(16, 17), nf_port=18, default_egress_port=16
)
UNBOUND_PORT = 7
STEPS = 1500
CHECKPOINT_EVERY = 125
#: Every reason the Merge kernel drops for.
MERGE_DROP_REASONS = {
    "payloadpark-tag-corrupt",
    "payloadpark-tag-out-of-range",
    "payloadpark-premature-eviction",
    "payloadpark-explicit-drop",
}


def _program(parked_bytes, plans):
    config = PayloadParkConfig(
        parked_bytes=parked_bytes,
        min_split_payload=64,  # parks payloads shorter than parked_bytes too
        enable_recirculation=parked_bytes > 160,
        table_entries=12,  # 6 slots per binding: wraps, evicts, refuses
        expiry_threshold=2,
        clock_max=5,
    )
    program = PayloadParkProgram(config, bindings=BINDINGS)
    if plans:
        program.enable_fast_path()
    return program


def _traced(program, process):
    """*process* under the flight recorder's switch seam, and the recorder."""
    recorder = FlightRecorder()
    owners = {"switch": (SimpleNamespace(name="switch"),)}
    return recorder, recorder._trace_program_process(owners, program, process)


def _walk_decision(program, packet, port):
    """Walk *packet* through *program*'s tables and derive the switch's
    decision from the finished record, as the switch reads it: a drop
    and its reason, else the egress port and the latency its
    recirculation passes owe."""
    ctx = program.asic.process(packet, port)
    assert not ctx.recirculate_requested  # the pipe settles every request
    if ctx.dropped:
        return None, 0, ctx.drop_reason
    if ctx.egress_port is None:
        return None, 0, "no-egress-decision"
    return ctx.egress_port, ctx.recirculations * Pipe.RECIRCULATION_LATENCY_NS, None


def _outcome(decision, packet):
    return decision, packet.pp, packet.to_bytes()


def _slots(program):
    """Every lookup table slot's metadata and parked payload, by binding."""
    return {
        name: [
            (table.peek_metadata(index), table.peek_payload(index))
            for index in range(table.entries)
        ]
        for name, table in program.lookup_tables.items()
    }


def _state(program, recorder):
    return {
        "bank": {name: c.as_dict() for name, c in program.counters.counters.items()},
        "slots": _slots(program),
        "taggers": {
            split.binding.name: split.tagger.peek()
            for split in program._split_of_port.values()
        },
        "recorder": list(recorder.records),
    }


def _runs_kernel(program, port):
    """Whether *port*'s plan is a fused kernel, not the stage walk."""
    return program._plans[port] != program._walk


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
    fast = _program(parked_bytes, plans=True)
    slow = _program(parked_bytes, plans=False)
    fast_recorder, fast_process = _traced(fast, fast.process)
    slow_recorder, slow_process = _traced(
        slow, lambda packet, port: _walk_decision(slow, packet, port)
    )
    at_nf = {binding.name: [] for binding in BINDINGS}  # (fast copy, slow copy)
    outcomes = []
    binding_of = {port: b.name for b in BINDINGS for port in b.ingress_ports}
    slots = _slots(fast)
    parks = {"short": 0, "full": 0, "over an expired slot": 0}

    def compare(packet, twin, port):
        nonlocal slots
        decision = fast_process(packet, port)
        outcome = _outcome(decision, packet)
        assert outcome == _outcome(slow_process(twin, port), twin)
        before, slots = slots, _slots(fast)
        assert slots == _slots(slow)
        outcomes.append((port, decision))
        if port in binding_of and packet.pp.enb == 1:
            name, index = binding_of[port], packet.pp.tbl_idx
            parked = len(slots[name][index][1])
            parks["short" if parked < parked_bytes else "full"] += 1
            parks["over an expired slot"] += before[name][index][0].occupied
        return decision

    def send(packet, port):
        packet.meta["obs_pkt"] = f"p{len(outcomes)}"  # every packet traced
        twin = packet.copy()
        return compare(packet, twin, port), packet, twin

    def from_nf(binding, tamper=None):
        waiting = at_nf[binding.name]
        if not waiting:
            return
        pair = waiting.pop(rng.randrange(len(waiting)))
        if tamper is not None:
            for packet in pair:
                if packet.pp is not None:
                    tamper(packet.pp)
        compare(*pair, binding.nf_port)

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
            decision, packet, twin = send(
                Packet.udp(total_size=size, dst_mac="02:00:00:00:00:%02x" % rng.randrange(4)),
                rng.choice(binding.ingress_ports),
            )
            if decision[2] is None:
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
        if step == STEPS // 3:
            # A control-plane drain leaves the compiled plans in place:
            # they index the register storage the drain empties.
            plans = dict(fast._plans)
            occupied = {n: t.occupied_indices() for n, t in fast.lookup_tables.items()}
            drained = [program.drain_parked(fraction=0.5) for program in (fast, slow)]
            assert drained[0] == drained[1] and any(drained[0].values())
            assert fast._plans == plans
            slots = _slots(fast)
            assert slots == _slots(slow)
            for name, indices in occupied.items():
                freed = [i for i in indices if not slots[name][i][0].occupied]
                assert freed == drained[0][name]
                assert all(slots[name][i][1] == b"" for i in freed)
        if step == STEPS // 2:
            # A late table that cannot match on any bound port: plans stay fused.
            for program in (fast, slow):
                pipeline = program.asic.pipes[0].pipeline
                pipeline.stage(1).add_table(_noop_table("tap", frozenset((UNBOUND_PORT,))))
            assert fast._plans == {}  # dropped at the install, recompiled fused
            send(Packet.udp(total_size=512), 0)
            assert _runs_kernel(fast, 0)
        if step == 3 * STEPS // 4:
            # One that might: every port of the pipe is back on the stage walk.
            for program in (fast, slow):
                pipeline = program.asic.pipes[0].pipeline
                pipeline.stage(3).add_table(_noop_table("anywhere", None))
            assert fast._plans == {}
            send(Packet.udp(total_size=512), 0)
            assert not _runs_kernel(fast, 0)
        if step % CHECKPOINT_EVERY == 0:
            assert _state(fast, fast_recorder) == _state(slow, slow_recorder)

    final = _state(fast, fast_recorder)
    assert final == _state(slow, slow_recorder)
    # The stream really exercised every outcome the plans fuse.
    bank = fast.counters.total()
    assert bank.splits and bank.merges and bank.evictions and bank.premature_evictions
    assert bank.explicit_drops and bank.merge_enb_zero and bank.split_disabled_table_occupied
    assert bank.split_disabled_small_payload and bank.tag_validation_failures
    assert all(parks.values()), parks
    reasons = {reason for _port, (_egress, _owed, reason) in outcomes}
    assert MERGE_DROP_REASONS <= reasons
    traced = {record.get("outcome", record.get("ev")) for record in final["recorder"]}
    assert traced == {"park", "evicted", "merged", "explicit-drop", "premature_eviction", "drop"}
    # A second pass owes its latency on both sides, or on neither.
    nf_ports = {binding.nf_port for binding in BINDINGS}
    recirculated = {port in nf_ports for port, (_egress, owed, _reason) in outcomes if owed}
    assert recirculated == ({True, False} if parked_bytes > 160 else set())


@pytest.mark.parametrize("seed", [91, 92, 93])
def test_baseline_plans_match_the_stage_walk(seed):
    rng = random.Random(seed)
    bindings = [*BINDINGS, OTHER_PIPE_BINDING]
    fast, slow = BaselineProgram(bindings), BaselineProgram(bindings)
    fast.enable_fast_path()
    ports = [port for b in bindings for port in (*b.ingress_ports, b.nf_port)] + [UNBOUND_PORT]
    nf_ports = {b.nf_port for b in bindings}
    installed, from_nf, reasons = set(), [], set()

    def send(port):
        mac = "02:00:00:00:00:%02x" % rng.randrange(6)
        packet = Packet.udp(total_size=rng.choice([64, 512, 1400]), dst_mac=mac)
        twin = packet.copy()
        decision = fast.process(packet, port)
        assert _outcome(decision, packet) == _outcome(_walk_decision(slow, twin, port), twin)
        egress, _owed, reason = decision
        if reason is not None:
            reasons.add(reason)
        elif port in nf_ports:
            from_nf.append(mac in installed)

    def drop_mac_3(name, ingress_ports):
        return MatchActionTable(
            name=name,
            match=lambda ctx: ctx.packet.eth.dst.value & 0xFF == 3
            and (ingress_ports is None or ctx.ingress_port in ingress_ports),
            action=lambda ctx: ctx.drop(name),
            match_bits=48,
            ingress_ports=ingress_ports,
        )

    for step in range(STEPS):
        send(rng.choice(ports))
        if step in (STEPS // 7, 2 * STEPS // 7):
            mac, egress = "02:00:00:00:00:0%d" % (step % 5), rng.choice(ports)
            for program in (fast, slow):
                program.add_l2_entry(mac, egress)
            installed.add(mac)
        if step == 3 * STEPS // 7:
            fast.invalidate_fast_path()
        if step == 5 * STEPS // 7:
            # A late table scoped to a port no binding owns: plans stay fused.
            for program in (fast, slow):
                pipeline = program.asic.pipes[0].pipeline
                pipeline.stage(1).add_table(drop_mac_3("tap", frozenset((UNBOUND_PORT,))))
            assert fast._plans == {}
            send(0)
            assert _runs_kernel(fast, 0)
        if step == 6 * STEPS // 7:
            # One that matches anywhere: pipe 0 is back on the stage walk,
            # pipe 1 is not.
            for program in (fast, slow):
                pipeline = program.asic.pipes[0].pipeline
                pipeline.stage(3).add_table(drop_mac_3("anywhere", None))
            assert fast._plans == {}
            send(0)
            send(16)
            assert not _runs_kernel(fast, 0) and _runs_kernel(fast, 16)

    assert True in from_nf and False in from_nf  # MAC hits and default egresses
    # The unbound port's walk routes nothing, and says so.
    assert reasons == {"tap", "anywhere", "no-egress-decision"}


def test_baseline_keeps_one_plan_per_port_whatever_the_macs():
    program = BaselineProgram([BINDINGS[0]])
    program.enable_fast_path()
    nf_port = BINDINGS[0].nf_port
    program.process(Packet.udp(), nf_port)
    plan = program._plans[nf_port]
    for index in range(1000):
        mac = "02:00:00:00:%02x:%02x" % divmod(index, 256)
        program.process(Packet.udp(dst_mac=mac), nf_port)
    assert program._plans == {nf_port: plan}


# ---------------------------------------------------------------------- #
# The fused kernels' decisions and in-place records
# ---------------------------------------------------------------------- #


def _stored_fields(record, cls):
    """Every dataclass field of *record* as stored on it, never a class
    default: a slotted record raises on a slot the kernel left unset,
    and a dict-backed one (3.9) must hold every field, in declaration
    order (the order the constructor stores them in)."""
    names = [f.name for f in fields(cls)]
    assert type(record) is cls
    if hasattr(record, "__dict__"):
        assert list(vars(record)) == names
    return {name: getattr(record, name) for name in names}


def _fused(program, packet, port):
    """Process on *port*'s fused kernel (not the stage-walk plan)."""
    decision = program.process(packet, port)
    assert _runs_kernel(program, port), "the port must run a fused kernel"
    return decision


def _assert_entry_written(lookup, index, clk, exp):
    entry = lookup.peek_metadata(index)
    expected = MetadataEntry(clk, exp)
    assert entry == expected and hash(entry) == hash(expected)
    assert _stored_fields(entry, MetadataEntry) == _stored_fields(expected, MetadataEntry)


def _changed_slot(lookup, before):
    changed = [i for i in range(lookup.entries) if lookup.peek_metadata(i) != before[i]]
    assert len(changed) == 1
    return changed[0]


@pytest.mark.parametrize("parked_bytes", [160, 384])
def test_fused_payloadpark_records_equal_constructor_built_ones(parked_bytes):
    """Split's decision, metadata entries and header, and merge's
    decision, for every outcome; the records field for field against
    their constructors."""
    program = _program(parked_bytes, plans=True)
    binding = BINDINGS[0]
    port, nf_port, egress = binding.ingress_ports[0], binding.nf_port, binding.default_egress_port
    lookup = program.lookup_tables[binding.name]
    expiry = program.config.expiry_threshold
    owed = 0 if parked_bytes <= 160 else Pipe.RECIRCULATION_LATENCY_NS
    seen = set()

    def split(size):
        packet = Packet.udp(total_size=size)
        before = [lookup.peek_metadata(i) for i in range(lookup.entries)]
        decision = _fused(program, packet, port)
        return packet, decision, before

    def merge(packet, outcome, reason=None):
        decision = _fused(program, packet, nf_port)
        if reason is None:
            assert decision == (egress, owed if outcome == "merged" else 0, None)
        else:
            assert decision == (None, 0, reason)
        seen.add(outcome)

    # Split: not tagged (payload too small), parked (recirculating when
    # the parked bytes exceed one pass), then slot occupied on the wrap.
    small, decision, _ = split(64)
    assert decision == (nf_port, 0, None)
    assert small.pp == PayloadParkHeader.disabled()
    seen.add("split: small")
    parked = []
    row = bytes(Packet.udp(total_size=512).payload)[:parked_bytes]
    while True:
        packet, decision, before = split(512)
        index = _changed_slot(lookup, before)
        assert lookup.peek_payload(index) == row  # parked, or the occupant's
        if packet.pp.enb == 0:
            break
        assert decision == (nf_port, owed, None)
        _assert_entry_written(lookup, index, packet.pp.clk, expiry)
        assert packet.pp == PayloadParkHeader(1, OP_MERGE, index, packet.pp.clk).seal()
        parked.append(packet)
    seen.add("split: parked")
    assert decision == (nf_port, 0, None)
    _assert_entry_written(lookup, index, before[index].clk, before[index].exp - 1)
    assert packet.pp == PayloadParkHeader.disabled()
    seen.add("split: occupied")

    # Merge: every outcome, each drop reason included.
    merge(Packet.udp(total_size=400), "passthrough")
    merge(small, "enb 0")
    twin = parked[0].copy()
    merged_at, dropped_at = parked[0].pp.tbl_idx, parked[1].pp.tbl_idx
    merge(parked[0], "merged")
    assert lookup.peek_payload(merged_at) == b""
    merge(twin, "premature eviction", "payloadpark-premature-eviction")
    parked[1].pp.op = OP_EXPLICIT_DROP
    merge(parked[1], "explicit drop", "payloadpark-explicit-drop")
    assert lookup.peek_payload(dropped_at) == row  # residue the next claim overwrites
    parked[2].pp.crc ^= 0x1
    merge(parked[2], "corrupt", "payloadpark-tag-corrupt")
    parked[3].pp.tbl_idx = 60_000
    parked[3].pp.seal()
    merge(parked[3], "out of range", "payloadpark-tag-out-of-range")
    assert len(seen) == 10


def test_fused_baseline_decisions():
    program = BaselineProgram([BINDINGS[0]])
    program.enable_fast_path()
    binding = BINDINGS[0]
    port, nf_port = binding.ingress_ports[0], binding.nf_port
    packet = Packet.udp(total_size=512)
    assert _fused(program, packet, port) == (nf_port, 0, None)
    assert _fused(program, packet, nf_port) == (binding.default_egress_port, 0, None)
