"""Unit tests for the fault-injection subsystem.

Covers the declarative layer (event validation, schedule
materialization, the profile registry), the link fault state
(down/loss/jitter windows and their counters), parked-payload drains,
and the injector's target resolution and program events (expiry
reconfiguration and drains, no-ops on the baseline).
"""

import math

import pytest

from repro.core.config import NfServerBinding, PayloadParkConfig
from repro.core.program import BaselineProgram, PayloadParkProgram
from repro.errors import FaultSpecError
from repro.faults import (
    EventSchedule,
    FaultInjectorNode,
    fault_profile_names,
    get_fault_profile,
    register_fault_profile,
    validate_event_record,
)
from repro.faults.registry import FAULT_REGISTRY
from repro.netsim.eventloop import EventLoop
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.packet.packet import Packet


class _Sink(Node):
    def __init__(self, env, name="sink"):
        super().__init__(env, name)
        self.received = 0

    def handle_packet(self, packet, port):
        self.received += 1


def _frame(size=500):
    return Packet.from_bytes(bytes(size))


def _wired_link(env, **kwargs):
    a, b = _Sink(env, "a"), _Sink(env, "b")
    return Link(env, a, 0, b, 0, **kwargs), a, b


class TestEventValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultSpecError, match="needs a known 'kind'"):
            validate_event_record({"kind": "meteor_strike", "at_us": 1})

    def test_missing_time_rejected(self):
        with pytest.raises(FaultSpecError, match="needs 'at_us' or 'at_frac'"):
            validate_event_record({"kind": "link_down"})

    def test_both_times_rejected(self):
        with pytest.raises(FaultSpecError, match="not both"):
            validate_event_record({"kind": "link_down", "at_us": 1, "at_frac": 0.5})

    def test_unknown_key_rejected(self):
        with pytest.raises(FaultSpecError, match="unknown key"):
            validate_event_record({"kind": "link_down", "at_us": 1, "frobnicate": 2})

    def test_duration_only_on_window_kinds(self):
        with pytest.raises(FaultSpecError, match="does not take a duration"):
            validate_event_record(
                {"kind": "expiry_threshold", "at_us": 1, "value": 2, "duration_us": 5}
            )

    @pytest.mark.parametrize("record,match", [
        ({"kind": "link_loss", "at_us": 1, "probability": 0.0}, "probability"),
        ({"kind": "link_loss", "at_us": 1, "probability": 1.5}, "probability"),
        ({"kind": "link_jitter", "at_us": 1, "jitter_ns": 0}, "jitter_ns"),
        ({"kind": "backend_churn", "at_us": 1, "action": "explode"}, "action"),
        ({"kind": "firewall_churn", "at_us": 1, "action": "flip"}, "action"),
        ({"kind": "expiry_threshold", "at_us": 1, "value": 0}, "at least 1"),
        ({"kind": "park_drain", "at_us": 1, "fraction": 0.0}, "fraction"),
        ({"kind": "link_down", "at_frac": 1.5}, "at_frac"),
        ({"kind": "firewall_churn", "at_us": 1, "subnet": "10.0.0.0/40"}, "prefix length: 40"),
        ({"kind": "firewall_churn", "at_us": 1, "subnet": "10.0.0.0/-3"}, "prefix length: -3"),
        ({"kind": "firewall_churn", "at_us": 1, "subnet": "10.0.0/8"}, "malformed IPv4"),
    ])
    def test_parameter_bounds(self, record, match):
        with pytest.raises(FaultSpecError, match=match):
            validate_event_record(record)

    @pytest.mark.parametrize("record,match", [
        # Used to pass the spec and raise OverflowError at injector start.
        ({"kind": "link_down", "at_us": 100, "duration_us": math.inf}, "duration_us"),
        # Used to raise a bare ValueError mid-run.
        ({"kind": "link_down", "at_us": math.nan}, "at_us"),
        ({"kind": "link_down", "at_us": 100, "duration_frac": math.nan}, "duration_frac"),
        # Used to be refused only at materialization, after the testbed.
        ({"kind": "link_down", "at_us": -5}, "at_us"),
        # Used to fail with a float-conversion message naming no key.
        ({"kind": "park_drain", "at_us": 1, "fraction": "abc"}, "fraction"),
        ({"kind": "link_loss", "at_us": 1, "probability": "high"}, "probability"),
        ({"kind": "link_jitter", "at_us": 1, "jitter_ns": math.inf}, "jitter_ns"),
        ({"kind": "link_jitter", "at_us": 1, "jitter_ns": "wide"}, "jitter_ns"),
        ({"kind": "link_down", "at_us": "soon"}, "at_us"),
        ({"kind": "link_down", "at_us": math.inf}, "at_us"),
        ({"kind": "link_down", "at_us": None}, "at_us"),
        ({"kind": "link_down", "at_frac": "half"}, "at_frac"),
        ({"kind": "link_down", "at_us": 1, "duration_us": "long"}, "duration_us"),
        ({"kind": "link_down", "at_frac": 0.5, "duration_frac": math.inf}, "duration_frac"),
        ({"kind": "backend_churn", "at_us": 1, "count": "many"}, "count"),
        ({"kind": "backend_churn", "at_us": 1, "count": math.inf}, "count"),
        ({"kind": "expiry_threshold", "at_us": 1, "value": "high"}, "value"),
        ({"kind": "expiry_threshold", "at_us": 1, "value": math.inf}, "value"),
    ], ids=["inf-duration", "nan-at", "nan-duration-frac", "negative-at",
            "text-fraction", "text-probability", "inf-jitter", "text-jitter",
            "text-at", "inf-at", "none-at", "text-at-frac", "text-duration",
            "inf-duration-frac", "text-count", "inf-count", "text-value",
            "inf-value"])
    def test_timing_and_numbers_fail_at_the_declaration(self, record, match):
        with pytest.raises(FaultSpecError, match=match):
            EventSchedule.from_spec({"events": [record]})

    @pytest.mark.parametrize("generator,match", [
        ({"kind": "backend_churn", "period_us": math.inf}, "period_us"),
        ({"kind": "link_down", "period_frac": 0.2, "duration_us": math.inf}, "duration_us"),
        ({"kind": "backend_churn", "period_frac": 0.2, "start_us": math.nan}, "start_us"),
        ({"kind": "backend_churn", "period_frac": 0.2, "repeat": "twice"}, "repeat"),
        ({"kind": "backend_churn", "period_frac": 0.2, "repeat": math.inf}, "repeat"),
        ({"kind": "backend_churn", "period_frac": math.nan}, "period_frac"),
        ({"kind": "backend_churn", "period_us": "often"}, "period_us"),
        ({"kind": "backend_churn", "period_frac": 0.2, "start_frac": math.inf}, "start_frac"),
        ({"kind": "backend_churn", "period_frac": 0.2, "start_us": "later"}, "start_us"),
        ({"kind": "backend_churn", "period_frac": 0.2, "jitter": "some"}, "jitter"),
        ({"kind": "link_down", "period_frac": 0.2, "duration_frac": math.nan}, "duration_frac"),
    ], ids=["inf-period", "inf-duration", "nan-start", "text-repeat", "inf-repeat",
            "nan-period-frac", "text-period", "inf-start-frac", "text-start",
            "text-jitter", "nan-duration-frac"])
    def test_generator_numbers_fail_at_the_declaration(self, generator, match):
        with pytest.raises(FaultSpecError, match=match):
            EventSchedule.from_spec({"generators": [generator]})


class TestEventSchedule:
    def test_empty_schedule_rejected(self):
        with pytest.raises(FaultSpecError, match="at least one event"):
            EventSchedule()

    def test_from_spec_accepts_profile_name_dict_and_schedule(self):
        by_name = EventSchedule.from_spec("link-flap")
        assert by_name.name == "link-flap"
        inline = EventSchedule.from_spec(
            {"events": [{"kind": "link_down", "at_frac": 0.5}]}
        )
        assert inline.name == "custom"
        assert EventSchedule.from_spec(inline) is inline

    def test_from_spec_rejects_unknown_keys_and_types(self):
        with pytest.raises(FaultSpecError, match="unknown fault-schedule key"):
            EventSchedule.from_spec({"event": []})
        with pytest.raises(FaultSpecError, match="profile name, mapping"):
            EventSchedule.from_spec(42)

    def test_materialize_resolves_fractions_against_horizon(self):
        schedule = EventSchedule(events=(
            {"kind": "link_down", "at_frac": 0.5, "duration_frac": 0.25},
        ))
        [event] = schedule.materialize(seed=1, horizon_ns=1_000_000)
        assert event.at_ns == 500_000
        assert event.duration_ns == 250_000

    def test_materialize_drops_events_beyond_horizon(self):
        schedule = EventSchedule(events=(
            {"kind": "link_down", "at_us": 2_000},
            {"kind": "link_down", "at_us": 100},
        ))
        events = schedule.materialize(seed=1, horizon_ns=1_000_000)
        assert [event.at_ns for event in events] == [100_000]

    def test_generator_expansion_is_seed_deterministic(self):
        schedule = EventSchedule(generators=(
            {"kind": "backend_churn", "period_frac": 0.2, "jitter": 0.5},
        ))
        first = schedule.materialize(seed=9, horizon_ns=10_000_000)
        again = schedule.materialize(seed=9, horizon_ns=10_000_000)
        other = schedule.materialize(seed=10, horizon_ns=10_000_000)
        assert [event.at_ns for event in first] == [event.at_ns for event in again]
        assert [event.at_ns for event in first] != [event.at_ns for event in other]
        assert len(first) == 4  # one period in, every fifth of the horizon

    def test_generator_repeat_caps_firings(self):
        schedule = EventSchedule(generators=(
            {"kind": "backend_churn", "period_frac": 0.1, "repeat": 2},
        ))
        assert len(schedule.materialize(seed=0, horizon_ns=10_000_000)) == 2

    def test_generator_validation(self):
        with pytest.raises(FaultSpecError, match="period_us"):
            EventSchedule(generators=({"kind": "backend_churn"},))
        with pytest.raises(FaultSpecError, match="jitter"):
            EventSchedule(generators=(
                {"kind": "backend_churn", "period_frac": 0.2, "jitter": 2.0},
            ))
        with pytest.raises(FaultSpecError, match="unknown key"):
            EventSchedule(generators=(
                {"kind": "backend_churn", "period_frac": 0.2, "wat": 1},
            ))

    def test_zero_resolved_period_raises_instead_of_looping(self):
        # A sub-nanosecond period_us (or a period_frac of a tiny horizon)
        # truncates to 0 ns, which would never advance the firing cursor.
        schedule = EventSchedule(generators=(
            {"kind": "backend_churn", "period_us": 0.0004},
        ))
        with pytest.raises(FaultSpecError, match="at least 1 ns"):
            schedule.materialize(seed=1, horizon_ns=1_000)
        tiny = EventSchedule(generators=(
            {"kind": "backend_churn", "period_frac": 0.25},
        ))
        with pytest.raises(FaultSpecError, match="at least 1 ns"):
            tiny.materialize(seed=1, horizon_ns=3)

    def test_negative_durations_rejected_everywhere(self):
        with pytest.raises(FaultSpecError, match="duration_us"):
            validate_event_record(
                {"kind": "link_down", "at_frac": 0.3, "duration_us": -5}
            )
        with pytest.raises(FaultSpecError, match="duration_frac"):
            EventSchedule(generators=(
                {"kind": "link_loss", "period_frac": 0.2, "probability": 0.1,
                 "duration_frac": -0.1},
            ))

    def test_from_spec_tolerates_empty_yaml_keys(self):
        # YAML 'events:' with no value parses to None; that must be a
        # domain error (or empty), never a bare TypeError traceback.
        schedule = EventSchedule.from_spec(
            {"events": None, "generators": [
                {"kind": "backend_churn", "period_frac": 0.2},
            ]}
        )
        assert schedule.events == ()
        with pytest.raises(FaultSpecError, match="lists of mappings"):
            EventSchedule.from_spec({"events": "link_down"})

    def test_unknown_link_selector_rejected_at_spec_time(self):
        with pytest.raises(FaultSpecError, match="unknown link selector"):
            validate_event_record(
                {"kind": "link_down", "at_us": 1, "link": "sevrer"}
            )
        with pytest.raises(FaultSpecError, match="unknown link selector"):
            validate_event_record(
                {"kind": "link_loss", "at_us": 1, "probability": 0.1, "link": "genx"}
            )
        validate_event_record({"kind": "link_down", "at_us": 1, "link": "gen7"})


class TestRegistry:
    def test_every_profile_builds_and_materializes(self):
        for name in fault_profile_names():
            schedule = get_fault_profile(name)
            events = schedule.materialize(seed=3, horizon_ns=6_000_000)
            assert events, f"profile {name} materialized no events"
            assert all(event.at_ns < 6_000_000 for event in events)

    def test_unknown_profile_and_duplicate_registration(self):
        with pytest.raises(FaultSpecError, match="unknown fault profile"):
            get_fault_profile("nope")
        existing = fault_profile_names()[0]
        with pytest.raises(FaultSpecError, match="already registered"):
            register_fault_profile(existing, FAULT_REGISTRY[existing])


class TestLinkFaults:
    def test_downed_link_drops_and_counts(self):
        env = EventLoop()
        link, a, b = _wired_link(env)
        link.set_up(False)
        assert not link.is_up
        link.transmit(_frame(), a)
        env.run_all()
        assert b.received == 0
        assert link.fault_drops() == 1
        assert link.buffer_drops() == 0
        assert link.total_drops() == 1
        link.set_up(True)
        link.transmit(_frame(), a)
        env.run_all()
        assert b.received == 1

    def test_loss_window_is_seeded_and_clearable(self):
        def run(seed):
            env = EventLoop()
            link, a, b = _wired_link(env)
            link.set_loss(0.5, seed=seed)
            for _ in range(200):
                link.transmit(_frame(), a)
            env.run_all()
            return b.received, link.fault_drops()

        received, dropped = run(7)
        assert received + dropped == 200
        assert 0 < dropped < 200
        assert run(7) == (received, dropped)  # same seed, same pattern
        assert run(8) != (received, dropped)

        env = EventLoop()
        link, a, b = _wired_link(env)
        link.set_loss(1.0, seed=1)
        link.set_loss(0.0)  # close the window
        link.transmit(_frame(), a)
        env.run_all()
        assert b.received == 1

    def test_jitter_window_delays_arrivals(self):
        env = EventLoop()
        link, a, b = _wired_link(env, propagation_delay_ns=500)
        link.set_jitter(10_000, seed=3)
        link.transmit(_frame(), a)
        env.run_all()
        assert b.received == 1
        assert env.now > 500  # extra propagation beyond the base delay
        link.set_jitter(0)
        assert link._a_to_b.jitter_ns == 0

    def test_jitter_never_reorders_the_wire(self):
        # A wire is FIFO: per-frame jitter delays arrivals but can never
        # deliver frame N+1 before frame N.
        class _OrderSink(Node):
            def __init__(self, env):
                super().__init__(env, "ordersink")
                self.arrival_times = []

            def handle_packet(self, packet, port):
                self.arrival_times.append((self.env.now, packet.meta["seq"]))

        env = EventLoop()
        a = _Sink(env, "a")
        b = _OrderSink(env)
        link = Link(env, a, 0, b, 0, propagation_delay_ns=500)
        link.set_jitter(50_000, seed=11)
        for seq in range(100):
            frame = _frame()
            frame.meta["seq"] = seq
            link.transmit(frame, a)
        env.run_all()
        sequences = [seq for _when, seq in b.arrival_times]
        times = [when for when, _seq in b.arrival_times]
        assert sequences == sorted(sequences)
        assert times == sorted(times)

    def test_loss_probability_bounds(self):
        env = EventLoop()
        link, _a, _b = _wired_link(env)
        with pytest.raises(ValueError):
            link.set_loss(1.5)
        with pytest.raises(ValueError):
            link.set_jitter(-1)


_BINDING = NfServerBinding(
    name="srv0", ingress_ports=(0, 1), nf_port=2, default_egress_port=0
)


def _pp_program(**config):
    config.setdefault("sram_fraction", 0.1)
    config.setdefault("expiry_threshold", 1)
    return PayloadParkProgram(PayloadParkConfig(**config), bindings=[_BINDING])


def _occupy_slots(program, count):
    """Park synthetic payloads directly through the control plane."""
    from repro.core.lookup_table import MetadataEntry

    table = program.lookup_table("srv0")
    counters = program.counters_for("srv0")
    for index in range(count):
        table.metadata.poke(index, MetadataEntry(clk=1, exp=1))
        table.block_arrays[0].poke(index, b"payload")
        counters.splits += 1
    return table, counters


class _DrainRecorder:
    def __init__(self):
        self.drained = []

    def slot_drained(self, binding, index):
        self.drained.append((binding, index))

    def fault_applied(self, kind, at_ns, duration_ns, params):
        pass


class TestDrainParked:
    def test_drains_the_first_slots_in_index_order(self):
        program = _pp_program()
        table, counters = _occupy_slots(program, 4)
        recorder = _DrainRecorder()
        assert program.drain_parked(fraction=0.5, recorder=recorder) == {"srv0": 2}
        assert recorder.drained == [("srv0", 0), ("srv0", 1)]
        assert table.occupied_indices() == [2, 3]

    def test_accounts_evictions_and_clears_payload(self):
        program = _pp_program()
        table, counters = _occupy_slots(program, 4)
        program.drain_parked(fraction=0.5)
        assert counters.evictions == 2
        assert table.occupancy() == 2
        # The dataplane identity holds: outstanding == occupied.
        assert counters.outstanding_payloads == table.occupancy()
        # Drained slots were fully reclaimed: metadata free AND blocks empty.
        assert table.peek_payload(0) == b""
        assert not table.peek_metadata(0).occupied

    def test_fraction_rounds_up_and_targets_one_binding(self):
        program = _pp_program()
        table, counters = _occupy_slots(program, 3)
        assert program.drain_parked("srv0", fraction=0.5) == {"srv0": 2}
        assert program.drain_parked("other", fraction=1.0) == {}
        assert program.drain_parked(fraction=0.01) == {"srv0": 1}
        assert counters.evictions == 3 and table.occupancy() == 0

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
    def test_fraction_outside_unit_interval_rejected(self, fraction):
        program = _pp_program()
        _occupy_slots(program, 2)
        with pytest.raises(ValueError, match="fraction"):
            program.drain_parked(fraction=fraction)
        assert program.lookup_table("srv0").occupancy() == 2


class TestInjectorProgramEvents:
    def _injector(self, program):
        schedule = EventSchedule(events=({"kind": "link_down", "at_frac": 0.1},))
        return FaultInjectorNode(EventLoop(), None, program, schedule)

    def test_expiry_threshold_event_governs_later_splits(self):
        from repro.faults.events import FaultEvent

        program = _pp_program(table_entries=1)
        injector = self._injector(program)
        injector.apply_event(FaultEvent("expiry_threshold", 0, {"value": 5}))
        assert program.config.expiry_threshold == 5
        assert injector.threshold_changes == 1
        for _ in range(2):
            program.process(Packet.udp(total_size=512), ingress_port=0)
        # With the conservative threshold the wrap-around no longer evicts.
        assert program.counters_for().evictions == 0
        assert program.counters_for().split_disabled_table_occupied == 1

    def test_park_drain_event_drains_and_counts(self):
        from repro.faults.events import FaultEvent

        program = _pp_program()
        _occupy_slots(program, 4)
        injector = self._injector(program)
        injector.obs_recorder = recorder = _DrainRecorder()
        injector.apply_event(FaultEvent("park_drain", 0, {"fraction": 0.5}))
        injector.apply_event(FaultEvent("park_drain", 0, {"binding": "srv0"}))
        assert injector.slots_drained == {"srv0": 4}
        assert [index for _name, index in recorder.drained] == [0, 1, 2, 3]

    def test_program_events_on_the_baseline_change_nothing(self):
        from repro.faults.events import FaultEvent

        program = BaselineProgram([_BINDING])
        program.enable_fast_path()
        program.process(Packet.udp(total_size=512), ingress_port=0)
        injector = self._injector(program)

        def state():
            stats = injector.stats()
            del stats["events_applied"]
            return stats, dict(program._plans)

        before = state()
        injector.apply_event(FaultEvent("expiry_threshold", 0, {"value": 5}))
        injector.apply_event(FaultEvent("park_drain", 0, {"fraction": 0.5}))
        assert injector.events_applied == 2
        assert state() == before
        assert injector.slots_drained == {}


class TestInjectorUnits:
    def _topology(self, chain="fw_nat_lb"):
        from repro.experiments.runner import (
            DeploymentKind,
            ExperimentRunner,
            ScenarioConfig,
        )
        from repro.experiments import chains

        factories = {"fw_nat_lb": chains.fw_nat_lb(rule_count=3),
                     "fw_nat": chains.fw_nat(rule_count=1)}
        scenario = ScenarioConfig(name="unit", chain_factory=factories[chain],
                                  faults=None)
        return ExperimentRunner()._build_testbed(scenario, DeploymentKind.PAYLOADPARK)

    def test_link_selector_resolution(self):
        topology, program = self._topology()
        schedule = EventSchedule(events=({"kind": "link_down", "at_frac": 0.1},))
        injector = FaultInjectorNode(topology.env, topology, program, schedule)
        attachment = topology.attachments[0]
        assert injector._select_links({"link": "server"}) == [attachment.server_link]
        assert injector._select_links({"link": "gen"}) == attachment.gen_links
        assert injector._select_links({"link": "gen1"}) == [attachment.gen_links[1]]
        assert injector._select_links({"link": "all"}) == (
            [attachment.server_link] + attachment.gen_links
        )
        with pytest.raises(FaultSpecError, match="matched nothing"):
            injector._select_links({"link": "uplink7"})
        # Well-formed selectors that match no link fail loudly too: a
        # silently no-op'd fault event would fake chaos coverage.
        with pytest.raises(FaultSpecError, match="matched no link"):
            injector._select_links({"link": "server", "binding": "nf-typo"})
        with pytest.raises(FaultSpecError, match="matched no link"):
            injector._select_links({"link": "gen9"})

    def test_firewall_churn_adds_then_removes_own_rules(self):
        from repro.faults.events import FaultEvent
        from repro.nf.firewall import Firewall

        topology, program = self._topology()
        schedule = EventSchedule(events=({"kind": "link_down", "at_frac": 0.1},))
        injector = FaultInjectorNode(topology.env, topology, program, schedule)
        [(server, firewall)] = injector._nfs_of_type(Firewall)
        before = list(firewall.rules)
        injector.apply_event(FaultEvent("firewall_churn", 0, {"action": "add", "count": 3}))
        assert len(firewall.rules) == len(before) + 3
        injector.apply_event(
            FaultEvent("firewall_churn", 0, {"action": "remove", "count": 3})
        )
        assert firewall.rules == before
        assert injector.rules_added == 3 and injector.rules_removed == 3

    def test_backend_churn_never_empties_the_pool(self):
        from repro.faults.events import FaultEvent
        from repro.nf.loadbalancer import MaglevLoadBalancer

        topology, program = self._topology()
        schedule = EventSchedule(events=({"kind": "link_down", "at_frac": 0.1},))
        injector = FaultInjectorNode(topology.env, topology, program, schedule)
        [(_server, lb)] = injector._nfs_of_type(MaglevLoadBalancer)
        pool = len(lb.backends)
        injector.apply_event(
            FaultEvent("backend_churn", 0, {"action": "remove", "count": pool + 5})
        )
        assert len(lb.backends) == 1  # drained down to the floor, never empty
        injector.apply_event(FaultEvent("backend_churn", 0, {"action": "add", "count": 2}))
        assert len(lb.backends) == 3
        assert injector.backends_added == 2

    def test_overlapping_down_windows_nest(self):
        from repro.faults.events import FaultEvent

        topology, program = self._topology()
        schedule = EventSchedule(events=({"kind": "link_down", "at_frac": 0.1},))
        injector = FaultInjectorNode(topology.env, topology, program, schedule)
        env = topology.env
        link = topology.attachments[0].server_link
        # Window 1: [now, +100]; window 2: [+50, +200].  Window 1's close
        # at +100 must NOT bring the link up mid-window-2.
        injector.apply_event(
            FaultEvent("link_down", 0, {"duration_ns": 100, "link": "server"})
        )
        env.run_until(50)
        injector.apply_event(
            FaultEvent("link_down", 0, {"duration_ns": 200, "link": "server"},
                       sequence=1)
        )
        env.run_until(150)
        assert not link.is_up  # window 1 closed, window 2 still covers the link
        env.run_until(300)
        assert link.is_up

    def test_explicit_link_up_cancels_pending_window_closures(self):
        from repro.faults.events import FaultEvent

        topology, program = self._topology()
        schedule = EventSchedule(events=({"kind": "link_down", "at_frac": 0.1},))
        injector = FaultInjectorNode(topology.env, topology, program, schedule)
        env = topology.env
        link = topology.attachments[0].server_link
        # Window 1: [0, +100]; explicit up at +20; window 2: [+30, +130].
        # Window 1's stale back_up at +100 must not end window 2 early.
        injector.apply_event(FaultEvent(
            "link_down", 0, {"duration_ns": 100, "link": "server"}, sequence=0))
        env.run_until(20)
        injector.apply_event(FaultEvent("link_up", 0, {"link": "server"}))
        assert link.is_up
        env.run_until(30)
        injector.apply_event(FaultEvent(
            "link_down", 0, {"duration_ns": 100, "link": "server"}, sequence=1))
        env.run_until(110)
        assert not link.is_up  # stale closure from window 1 was cancelled
        env.run_until(200)
        assert link.is_up

    def test_overlapping_loss_windows_latest_wins(self):
        from repro.faults.events import FaultEvent

        topology, program = self._topology()
        schedule = EventSchedule(events=({"kind": "link_down", "at_frac": 0.1},))
        injector = FaultInjectorNode(topology.env, topology, program, schedule)
        env = topology.env
        link = topology.attachments[0].server_link
        injector.apply_event(FaultEvent(
            "link_loss", 0, {"probability": 0.2, "duration_ns": 100,
                             "link": "server"}, sequence=0))
        env.run_until(50)
        injector.apply_event(FaultEvent(
            "link_loss", 0, {"probability": 0.5, "duration_ns": 200,
                             "link": "server"}, sequence=1))
        env.run_until(150)
        # Window 1's close fired at +100 but window 2 re-armed the link.
        assert link._a_to_b.loss_probability == 0.5
        env.run_until(300)
        assert link._a_to_b.loss_probability == 0.0

    def test_scenario_config_rejects_bad_profile_at_run_time(self):
        from repro.experiments.runner import (
            DeploymentKind,
            ExperimentRunner,
            ScenarioConfig,
        )

        scenario = ScenarioConfig(name="bad", faults="no-such-profile",
                                  duration_us=100.0, warmup_us=20.0)
        with pytest.raises(FaultSpecError, match="unknown fault profile"):
            ExperimentRunner().run_deployment(scenario, DeploymentKind.BASELINE)
