"""Edge-case coverage for the discrete-event loops.

The orchestrator's correctness rests on runs being deterministic and
independent; these tests pin the corner behaviours — horizon handling,
tie-breaking, scheduling boundaries — that the basic suite in
``test_netsim.py`` does not reach.  Every case runs against both the
reference heap loop and the fast calendar loop, which must agree.
"""

import math

import pytest

from repro.netsim.eventloop import EventLoop, FastEventLoop


@pytest.fixture(params=[EventLoop, FastEventLoop], ids=["reference", "fast"])
def env(request):
    return request.param()


class TestSchedulingBoundaries:
    def test_schedule_at_current_time_is_allowed(self, env):
        env.schedule_in(10, lambda: None)
        env.run_until(10)
        fired = []
        env.schedule_at(10, lambda: fired.append(env.now))
        env.run_until(10)
        assert fired == [10]

    def test_schedule_in_zero_runs_after_current_event(self, env):
        order = []
        env.schedule_at(5, lambda: (order.append("first"),
                                    env.schedule_in(0, lambda: order.append("second"))))
        env.run_until(5)
        assert order == ["first", "second"]
        assert env.now == 5

    def test_scheduling_in_past_raises_even_mid_run(self, env):
        errors = []

        def try_past():
            try:
                env.schedule_at(env.now - 1, lambda: None)
            except ValueError as exc:
                errors.append(str(exc))

        env.schedule_at(100, try_past)
        env.run_until(100)
        assert len(errors) == 1 and "past" in errors[0]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError, match="non-negative"):
            env.schedule_in(-5, lambda: None)

    def test_past_event_rejected_after_a_valid_one_stays_scheduled(self, env):
        env.run_until(100)
        fired = []
        env.schedule_at(150, fired.append, "valid")
        with pytest.raises(ValueError, match="past"):
            env.schedule_at(50, fired.append, "past")
        assert env.pending_events == 1
        env.run_until(200)
        assert fired == ["valid"]


class TestHorizonSemantics:
    def test_run_until_advances_now_to_horizon_with_empty_queue(self, env):
        env.run_until(1_000)
        assert env.now == 1_000

    def test_run_until_advances_now_past_last_event(self, env):
        env.schedule_in(10, lambda: None)
        env.run_until(500)
        assert env.now == 500

    def test_event_exactly_at_horizon_executes(self, env):
        fired = []
        env.schedule_at(100, lambda: fired.append(True))
        env.run_until(100)
        assert fired == [True]
        assert env.pending_events == 0

    def test_earlier_horizon_does_not_move_time_backwards(self, env):
        env.run_until(1_000)
        env.run_until(10)
        assert env.now == 1_000

    def test_earlier_horizon_with_pending_events_is_a_clamped_no_op(self, env):
        # The regression this pins: after a prior run advanced ``now``,
        # calling run_until with an earlier horizon must neither rewind
        # the clock nor execute (or lose) the still-pending events.
        env.run_until(1_000)
        fired = []
        env.schedule_at(1_500, lambda: fired.append(env.now))
        env.run_until(10)
        assert env.now == 1_000
        assert fired == []
        assert env.pending_events == 1
        env.run_until(2_000)
        assert fired == [1_500]
        assert env.now == 2_000

    def test_both_loops_agree_on_events_exactly_at_horizon(self):
        # The two run_until docstrings once read differently ("until
        # time exceeds" vs "until time would exceed"); this pins the
        # actual, shared contract — the horizon is inclusive, ties at
        # the horizon all execute, and both loops agree on executed and
        # monitor-fire counts.
        def drive(loop_cls):
            loop = loop_cls()
            fires = []
            loop.monitor = fires.append
            order = []
            loop.schedule_at(50, lambda: order.append("early"))
            # Two ties exactly at the horizon, one of them scheduling a
            # third tie mid-drain, plus one event just beyond.
            loop.schedule_at(100, lambda: (
                order.append("tie-1"),
                loop.schedule_at(100, lambda: order.append("tie-3")),
            ))
            loop.schedule_at(100, lambda: order.append("tie-2"))
            loop.schedule_at(101, lambda: order.append("beyond"))
            loop.run_until(100)
            return order, fires, loop.events_executed, loop.now, loop.pending_events

        reference = drive(EventLoop)
        fast = drive(FastEventLoop)
        assert reference == fast
        order, fires, executed, now, pending = reference
        assert order == ["early", "tie-1", "tie-2", "tie-3"]
        assert fires == [50, 100, 100, 100]
        assert executed == 4 and now == 100 and pending == 1

    def test_monitor_fires_identically_across_successive_horizons(self):
        def drive(loop_cls):
            loop = loop_cls()
            fires = []
            loop.monitor = fires.append
            for when in (10, 20, 20, 30):
                loop.schedule_at(when, lambda: None)
            loop.run_until(20)
            first = list(fires)
            loop.run_until(30)
            return first, fires

        assert drive(EventLoop) == drive(FastEventLoop)
        first, total = drive(EventLoop)
        assert first == [10, 20, 20]
        assert total == [10, 20, 20, 30]

    def test_successive_windows_partition_events(self, env):
        hits = []
        for when in (10, 20, 30, 40):
            env.schedule_at(when, lambda w=when: hits.append(w))
        env.run_until(20)
        assert hits == [10, 20] and env.now == 20
        env.run_until(40)
        assert hits == [10, 20, 30, 40] and env.now == 40


class TestOrderingAndAccounting:
    def test_ties_preserve_scheduling_order_across_interleaved_times(self, env):
        order = []
        env.schedule_at(7, lambda: order.append("a"))
        env.schedule_at(5, lambda: order.append("b"))
        env.schedule_at(7, lambda: order.append("c"))
        env.schedule_at(5, lambda: order.append("d"))
        env.run_until(10)
        assert order == ["b", "d", "a", "c"]

    def test_ties_scheduled_from_callbacks_run_after_existing_ties(self, env):
        order = []
        env.schedule_at(5, lambda: (order.append(1),
                                    env.schedule_at(5, lambda: order.append(3))))
        env.schedule_at(5, lambda: order.append(2))
        env.run_until(5)
        assert order == [1, 2, 3]

    def test_events_executed_counts_only_executed(self, env):
        for when in (10, 20, 30):
            env.schedule_at(when, lambda: None)
        env.run_until(20)
        assert env.events_executed == 2
        assert env.pending_events == 1

    def test_run_all_respects_max_events(self, env):
        hits = []
        for when in (10, 20, 30):
            env.schedule_at(when, lambda w=when: hits.append(w))
        env.run_all(max_events=2)
        assert hits == [10, 20]
        assert env.pending_events == 1

    def test_run_all_max_events_can_stop_mid_tie_and_resume(self, env):
        hits = []
        for index in range(5):
            env.schedule_at(50, lambda i=index: hits.append(i))
        env.run_all(max_events=2)
        assert hits == [0, 1]
        assert env.pending_events == 3
        env.run_until(50)
        assert hits == [0, 1, 2, 3, 4]
        assert env.pending_events == 0

    def test_arg_and_zero_arg_events_interleave_by_call_order(self, env):
        order = []
        env.schedule_at(5, lambda: order.append("a"))
        env.schedule_at(5, order.append, "b")
        env.schedule_at(3, order.append, None)
        env.schedule_in(5, lambda: order.append("d"))
        env.schedule_in(5, order.append, "e")
        env.run_until(10)
        assert order == [None, "a", "b", "d", "e"]
        assert env.events_executed == 5


class TestNonFiniteTimes:
    """NaN compares false against everything, so a check written as
    ``when < now`` lets it through; these pin the rejections."""

    def test_nan_event_time_is_rejected_and_the_order_kept(self, env):
        order = []
        env.schedule_at(10, order.append, "a")
        with pytest.raises(ValueError, match="past or at NaN"):
            env.schedule_at(math.nan, order.append, "bad")
        env.schedule_at(5, order.append, "b")
        env.run_until(100)
        assert order == ["b", "a"]

    def test_nan_delay_is_rejected(self, env):
        with pytest.raises(ValueError, match="non-negative"):
            env.schedule_in(math.nan, lambda: None)
        assert env.pending_events == 0

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -math.inf])
    def test_non_finite_horizon_is_rejected_before_any_event_runs(self, env, horizon):
        ticks = []

        def tick():
            ticks.append(env.now)
            if len(ticks) < 10_000:  # bounded, so a loop that accepts NaN still ends
                env.schedule_in(100, tick)

        env.schedule_at(0, tick)
        with pytest.raises(ValueError, match="finite"):
            env.run_until(horizon)
        assert (ticks, env.now, env.pending_events) == ([], 0, 1)
        env.run_until(500)
        assert ticks == [0, 100, 200, 300, 400, 500]
