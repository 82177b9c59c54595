"""Property tests for the event loops (seeded-random interleavings).

The simulator's determinism rests on two scheduler invariants:

* events execute in nondecreasing time order, with FIFO order among
  events scheduled for the same timestamp (including events scheduled
  *during* the execution of a tie); and
* :class:`~repro.netsim.eventloop.FastEventLoop` (calendar buckets)
  executes exactly the same event sequence as the reference
  :class:`~repro.netsim.eventloop.EventLoop` (heap) for any interleaving
  of ``schedule_at`` / ``schedule_in`` calls, whether an event is a
  zero-argument callback or a ``(callback, arg)`` record.

Hypothesis is not part of the pinned environment, so the generators are
seeded ``random.Random`` programs replayed against both loop classes —
each seed is a reproducible property case.
"""

import random

import pytest

from repro.netsim.eventloop import EventLoop, FastEventLoop, calendar_of

LOOPS = (EventLoop, FastEventLoop)

#: Trace marker for an event that ran as ``callback()``.
NO_ARG = "<no-arg>"
#: Event kinds a program draws from: zero-argument callback, callback
#: with a value, callback with ``arg=None`` (an argument like any other).
KINDS = ("plain", "value", "none")


def _random_program(seed, operations=400, horizon=2_000):
    """Build a reproducible scheduling program: a list of op descriptors.

    Ops are ``("at", when, tag, kind)`` or ``("in", delay, tag, kind)``
    with *kind* one of :data:`KINDS`.  A fraction of events reschedule
    follow-ups when they execute, covering the schedule-during-drain
    paths.
    """
    rng = random.Random(seed)
    ops = []
    for index in range(operations):
        kind = rng.choice(KINDS)
        if rng.random() < 0.6:
            ops.append(("at", rng.randrange(horizon), f"at{index}", kind))
        else:
            ops.append(("in", rng.randrange(horizon // 4), f"in{index}", kind))
    return ops


class _Harness:
    """One loop plus the callbacks that write its execution trace.

    Every executed event appends ``(now, callback name, arg)``; the
    follow-up decisions come from a seeded RNG consumed in execution
    order, so two loops that execute the same sequence also schedule the
    same follow-ups.
    """

    def __init__(self, loop_cls, chain_seed):
        self.env = loop_cls()
        self.trace = []
        self._chain_rng = random.Random(chain_seed)

    def schedule(self, op):
        how, offset, tag, kind = op
        schedule = self.env.schedule_at if how == "at" else self.env.schedule_in
        self._schedule(schedule, offset, tag, kind, depth=0)

    def _schedule(self, schedule, offset, tag, kind, depth):
        if kind == "plain":
            schedule(offset, self._plain(tag, depth))
        elif kind == "value":
            schedule(offset, self._with_arg, (tag, depth))
        else:
            schedule(offset, self._with_arg, None)

    def _plain(self, tag, depth):
        def callback():
            self.trace.append((self.env.now, tag, NO_ARG))
            self._maybe_chain(tag, depth)

        return callback

    def _with_arg(self, arg):
        self.trace.append((self.env.now, "with_arg", arg))
        if arg is not None:
            self._maybe_chain(*arg)

    def _maybe_chain(self, tag, depth):
        # Occasionally schedule follow-ups from inside an executing
        # event: same-time ties, zero delays and future events.
        rng = self._chain_rng
        if depth < 2 and rng.random() < 0.25:
            delay = rng.choice((0, 0, 1, 7, 50))
            self._schedule(
                self.env.schedule_in, delay, f"{tag}+{delay}", rng.choice(KINDS), depth + 1
            )


def _execute(loop_cls, ops, chain_seed, run_in_windows):
    """Run one scheduling program; return the observed trace and the loop."""
    harness = _Harness(loop_cls, chain_seed)
    for op in ops:
        harness.schedule(op)
    env = harness.env
    if run_in_windows:
        for horizon in (100, 500, 1_100, 2_500, 10_000):
            env.run_until(horizon)
    else:
        env.run_all()
    return harness.trace, env


@pytest.mark.parametrize("loop_cls", LOOPS)
@pytest.mark.parametrize("seed", range(12))
def test_times_nondecreasing_and_ties_fifo(loop_cls, seed):
    ops = _random_program(seed)
    trace, env = _execute(loop_cls, ops, chain_seed=seed * 31 + 1, run_in_windows=True)
    assert trace, "program should execute events"
    times = [when for when, _tag, _arg in trace]
    assert times == sorted(times), "events must execute in nondecreasing time order"
    assert env.pending_events == 0
    assert env.events_executed == len(trace)


@pytest.mark.parametrize("loop_cls", LOOPS)
def test_same_time_events_preserve_scheduling_order(loop_cls):
    env = loop_cls()
    order = []
    for index in range(50):
        env.schedule_at(42, lambda i=index: order.append(i))
    # Arg-carrying and zero-argument events share one FIFO.
    for index in range(50, 60):
        env.schedule_at(42, order.append, index)
    env.schedule_at(42, lambda: order.append(60))
    env.run_until(42)
    assert order == list(range(61))


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("run_in_windows", (False, True))
def test_fast_and_reference_loops_execute_identical_sequences(seed, run_in_windows):
    ops = _random_program(seed, operations=300)
    reference, ref_env = _execute(EventLoop, ops, chain_seed=seed, run_in_windows=run_in_windows)
    fast, fast_env = _execute(FastEventLoop, ops, chain_seed=seed, run_in_windows=run_in_windows)
    assert fast == reference
    assert {kind for _when, _tag, kind in reference} >= {NO_ARG, None}
    assert fast_env.events_executed == ref_env.events_executed == len(reference)


@pytest.mark.parametrize("loop_cls", LOOPS)
@pytest.mark.parametrize("seed", range(6))
def test_run_all_max_events_resumes_exactly(loop_cls, seed):
    """Draining in small increments yields the same trace as one sweep."""
    ops = _random_program(seed, operations=120)
    whole, _ = _execute(loop_cls, ops, chain_seed=7, run_in_windows=False)

    harness = _Harness(loop_cls, chain_seed=7)
    for op in ops:
        harness.schedule(op)
    while harness.env.pending_events:
        harness.env.run_all(max_events=3)
    assert harness.trace == whole


def _drive(loop_cls, seed):
    """Interleave scheduling with every way of advancing the loop.

    Times sit on a coarse grid (multiples of 10 over a short horizon),
    so buckets hold many events and ``run_all(max_events)`` keeps
    stopping mid-bucket.  Returns the execution trace plus a log of what each driver step
    reported.
    """
    rng = random.Random(seed)
    harness = _Harness(loop_cls, chain_seed=seed + 1_000)
    env = harness.env
    log = []
    index = 0
    for _phase in range(30):
        for _ in range(rng.randrange(5, 25)):
            index += 1
            kind = rng.choice(KINDS)
            if rng.random() < 0.6:
                harness.schedule(("at", env.now + rng.randrange(0, 400, 10), f"at{index}", kind))
            else:
                harness.schedule(("in", rng.randrange(0, 200, 10), f"in{index}", kind))
        if rng.random() < 0.5:
            env.run_all(max_events=rng.randrange(1, 8))
        else:
            env.run_until(env.now + rng.randrange(0, 120, 10))
        log.append((env.now, env.events_executed, env.pending_events))
    env.run_all()
    log.append((env.now, env.events_executed, env.pending_events))
    return harness.trace, log


@pytest.mark.parametrize("seed", range(25))
def test_fast_and_reference_loops_agree_under_every_driver(seed):
    """Same ``(time, callback, arg)`` trace, ``events_executed`` and
    ``pending_events`` through windows and partial drains."""
    reference_trace, reference_log = _drive(EventLoop, seed)
    fast_trace, fast_log = _drive(FastEventLoop, seed)
    assert fast_trace == reference_trace
    assert fast_log == reference_log
    assert reference_log[-1][2] == 0 and reference_log[-1][1] == len(reference_trace)


def test_driver_programs_reach_the_corner_cases(monkeypatch):
    """The generator above is only worth its seeds if it hits the cases
    it claims: mid-bucket stops and every event kind."""
    mid_bucket_stops = 0
    run_all = FastEventLoop.run_all

    def counting_run_all(self, max_events=None):
        nonlocal mid_bucket_stops
        run_all(self, max_events)
        # Stopped with events still due at the current nanosecond.
        mid_bucket_stops += self.now in calendar_of(self)[0]

    monkeypatch.setattr(FastEventLoop, "run_all", counting_run_all)
    kinds = set()
    for seed in range(25):
        trace, _log = _drive(FastEventLoop, seed)
        kinds |= {arg if arg in (NO_ARG, None) else "value" for _when, _tag, arg in trace}
    assert kinds == {NO_ARG, None, "value"}
    assert mid_bucket_stops > 20


@pytest.mark.parametrize("loop_cls", LOOPS)
def test_raising_callback_consumes_its_event(loop_cls):
    """A callback that raises is still consumed, exactly like the heap loop."""
    env = loop_cls()
    ran = []
    env.schedule_at(10, lambda: (_ for _ in ()).throw(RuntimeError("boom")))
    env.schedule_at(20, lambda: ran.append(True))
    with pytest.raises(RuntimeError):
        env.run_until(100)
    assert env.pending_events == 1  # the raising event is gone, one remains
    env.run_until(100)
    assert ran == [True]
    assert env.pending_events == 0


def _raise(message):
    raise RuntimeError(message)


@pytest.mark.parametrize("loop_cls", LOOPS)
@pytest.mark.parametrize("drain", ("run_until", "run_all"))
def test_raising_arg_callback_is_popped_but_not_counted(loop_cls, drain):
    """Alone at its timestamp and in the middle of a tie."""
    env = loop_cls()
    ran = []

    def run():
        if drain == "run_until":
            env.run_until(100)
        else:
            env.run_all()

    env.schedule_at(10, _raise, "alone")
    env.schedule_at(20, ran.append, "a")
    env.schedule_at(20, _raise, "mid-tie")
    env.schedule_at(20, ran.append, None)
    with pytest.raises(RuntimeError, match="alone"):
        run()
    assert (env.events_executed, env.pending_events) == (0, 3)
    with pytest.raises(RuntimeError, match="mid-tie"):
        run()
    assert ran == ["a"]
    assert (env.events_executed, env.pending_events) == (1, 1)
    run()
    assert ran == ["a", None]
    assert (env.events_executed, env.pending_events) == (2, 0)


class _Boom(RuntimeError):
    """Raised by a ``raise`` event; :meth:`_Lockstep.step` catches it."""


class _Lockstep:
    """One loop driven by a step program, with callbacks that act on
    the loop only through its public scheduling API.

    An event is ``(tag, action, fanout)``.  Every event logs
    ``(now, tag)``; ``spawn`` then schedules *fanout* events for the
    current nanosecond (from inside its draining bucket), ``raise``
    does the same and then raises, and ``future`` schedules *fanout*
    events a little later.
    """

    def __init__(self, loop_cls):
        self.env = loop_cls()
        self.trace = []

    def event(self, spec):
        tag, action, fanout = spec
        env = self.env
        self.trace.append((env.now, tag))
        for child in range(fanout):
            when = env.now + (10 * (child + 1) if action == "future" else 0)
            if action == "spawn" and child == 0 and len(tag) < 12:
                spec = (f"{tag}.{child}", "spawn", 2)  # a drain that spawns again
            else:
                spec = (f"{tag}.{child}", "log", 0)
            env.schedule_at(when, self.event, spec)
        if action == "raise":
            raise _Boom(tag)

    def step(self, program_step):
        """Apply one step; return what both loops must agree on after it."""
        env = self.env
        op, value = program_step[:2]
        raised = None
        try:
            if op == "schedule":
                env.schedule_at(env.now + value, self.event, program_step[2])
            elif op == "run_until":
                env.run_until(env.now + value)
            else:
                env.run_all(max_events=value)
        except _Boom as error:
            raised = str(error)
        return (raised, len(self.trace), env.now, env.events_executed, env.pending_events)


ACTIONS = ("log", "log", "spawn", "raise", "future")


def _drain_program(seed, steps=120):
    """A step program mixing every way a nanosecond's drain can stop.

    Times sit on a 10 ns grid a few slots ahead, so most nanoseconds
    hold a tie; horizons land on the same grid (inside a tie, or
    behind ``now``), and ``run_all`` budgets are small.
    """
    rng = random.Random(seed)
    program = []
    for index in range(steps):
        draw = rng.random()
        if draw < 0.6:
            action = rng.choice(ACTIONS)
            fanout = rng.randrange(0, 4) if action != "log" else 0
            program.append(("schedule", rng.randrange(0, 60, 10), (f"e{index}", action, fanout)))
        elif draw < 0.8:
            program.append(("run_until", rng.randrange(-10, 50, 10)))
        else:
            program.append(("run_all", rng.randrange(1, 6)))
    program.append(("run_until", 10_000))
    return program


def _lockstep(seed):
    """Run one drain program on both loops in lockstep, comparing what
    each step leaves behind, then drain whatever raises left over."""
    program = _drain_program(seed)
    reference, fast = _Lockstep(EventLoop), _Lockstep(FastEventLoop)
    for index, step in enumerate(program):
        expected, observed = reference.step(step), fast.step(step)
        assert observed == expected, (seed, index, step)
        assert fast.trace == reference.trace, (seed, index, step)
    while reference.env.pending_events:  # raises left events behind
        expected, observed = reference.step(("run_until", 10_000)), fast.step(("run_until", 10_000))
        assert observed == expected
    assert fast.trace == reference.trace
    assert fast.env.pending_events == 0


@pytest.mark.parametrize("seed", range(40))
def test_drain_stops_and_resumes_like_the_reference_loop(seed):
    """Same-time scheduling from a draining bucket, a raise mid-bucket
    after same-time successors were scheduled, ``run_all(max_events)``
    stopping mid-bucket and horizons inside a tie: after every step the
    two loops agree on the trace, ``now``, ``events_executed`` and
    ``pending_events``."""
    _lockstep(seed)


def test_drain_programs_reach_the_corner_cases(monkeypatch):
    """The drain programs hit each case above, judged through the fast
    loop's public view after every step."""
    seen = {
        "same-time from a drain": 0,
        "raise with same-time successors": 0,
        "run_all stopped mid-bucket": 0,
        "horizon inside a tie": 0,
    }
    event = _Lockstep.event
    step = _Lockstep.step

    def watching_event(self, spec):
        if spec[1] in ("spawn", "raise") and spec[2] and isinstance(self.env, FastEventLoop):
            seen["same-time from a drain"] += 1
        return event(self, spec)

    def watching_step(self, program_step):
        env = self.env
        fast = isinstance(env, FastEventLoop)
        if fast and program_step[0] == "run_until":
            horizon = env.now + program_step[1]
            tie = calendar_of(env)[0].get(horizon, ())
            seen["horizon inside a tie"] += len(tie) > 1
        observed = step(self, program_step)
        if fast and env.now in calendar_of(env)[0]:
            if observed[0] is not None:
                seen["raise with same-time successors"] += 1
            elif program_step[0] == "run_all":
                seen["run_all stopped mid-bucket"] += 1
        return observed

    monkeypatch.setattr(_Lockstep, "event", watching_event)
    monkeypatch.setattr(_Lockstep, "step", watching_step)
    for seed in range(40):
        _lockstep(seed)
    assert min(seen.values()) > 20, seen
