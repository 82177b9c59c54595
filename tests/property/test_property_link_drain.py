"""Property test: a link's lazily drained serialization ends are exact.

On the calendar loop, :meth:`repro.netsim.link.Link.transmit` schedules
no serialization-end event for a frame whose ``tx_done`` has nothing
pending yet; it queues ``(tx_done, wire_bytes)`` and the next transmit
on that direction drains it.  The reference heap loop keeps every
serialization-end event.  A random script drives one link between two
recording nodes on both loops: frames of random sizes sent at random
(often equal) instants in both directions, alone or back to back in one
callback (at 100,000 Gb/s a frame serializes in 0 ns, so its ``tx_done``
is the current instant), each optionally with a
"bystander" scheduled at the frame's own ``tx_done`` — before the
transmit (so the calendar already has an event there and the
serialization end is scheduled) or after it (so it is elided) — where
the bystander is a no-op or another transmit on the same direction at
exactly that nanosecond.  Both loops must execute the same trace and end
with equal per-direction counters, ``peak_queue_bytes`` and drops
included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.eventloop import EventLoop, FastEventLoop
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.packet.packet import Packet

#: What a step schedules at its frame's ``tx_done``, before or after the
#: transmit: nothing, a no-op event, or a second frame on the same direction.
BYSTANDERS = ("none", "noop", "send")

sizes = st.one_of(st.sampled_from([64, 500, 1000, 1500]), st.integers(42, 1600))
step_strategy = st.tuples(
    st.integers(0, 4_000),  # send instant (ns)
    sizes,  # frame size
    st.booleans(),  # b -> a instead of a -> b
    st.integers(1, 3),  # frames sent back to back by the one callback
    st.sampled_from(BYSTANDERS),  # scheduled at tx_done before the transmit
    st.sampled_from(BYSTANDERS),  # scheduled at tx_done after the transmit
    sizes,  # a bystander frame's size
)


class _Recorder(Node):
    """Appends every frame it receives to the shared trace."""

    def __init__(self, env, name, trace):
        super().__init__(env, name)
        self.trace = trace

    def handle_packet(self, packet, port):
        self.trace.append((self.env.now, f"{self.name} got", packet.meta["tag"]))


def _run(loop_cls, script, bandwidth_gbps, propagation_delay_ns, buffer_bytes):
    env = loop_cls()
    trace = []
    a, b = _Recorder(env, "a", trace), _Recorder(env, "b", trace)
    link = Link(
        env, a, 0, b, 0,
        bandwidth_gbps=bandwidth_gbps,
        propagation_delay_ns=propagation_delay_ns,
        buffer_bytes=buffer_bytes,
    )

    def transmit(sender, size, tag):
        packet = Packet.udp(total_size=size)
        packet.meta["tag"] = tag
        trace.append((env.now, f"{sender.name} sends", tag))
        link.transmit(packet, sender)

    def bystander(record):
        kind, sender, size, tag = record
        if kind == "noop":
            trace.append((env.now, "noop", tag))
        else:
            transmit(sender, size, tag)

    def send(index):
        _at, size, reverse, burst, before, after, other_size = script[index]
        sender = b if reverse else a
        # The first frame's tx_done, worked out the way Link.transmit does it.
        direction = link._b_to_a if reverse else link._a_to_b
        tx_done = max(env.now, direction.next_free_ns) + direction.serialization[size]
        if before != "none":
            env.schedule_at(tx_done, bystander, (before, sender, other_size, f"{index}<"))
        for frame in range(burst):
            transmit(sender, size, f"{index}.{frame}")
        if after != "none":
            env.schedule_at(tx_done, bystander, (after, sender, other_size, f"{index}>"))

    for index, step in enumerate(script):
        env.schedule_at(step[0], send, index)
    env.run_until(10**9)
    return trace, link.direction_counters()


@settings(max_examples=200, deadline=None)
@given(
    st.lists(step_strategy, min_size=1, max_size=40),
    st.sampled_from([8.0, 10.0, 40.0, 100_000.0]),  # the last: 0 ns serialization
    st.sampled_from([0, 1, 100, 800]),
    st.integers(64, 6_000),
)
def test_lazy_serialization_end_matches_the_reference_loop(
    script, bandwidth_gbps, propagation_delay_ns, buffer_bytes
):
    shape = (script, bandwidth_gbps, propagation_delay_ns, buffer_bytes)
    fast_trace, fast_counters = _run(FastEventLoop, *shape)
    ref_trace, ref_counters = _run(EventLoop, *shape)
    assert fast_trace == ref_trace
    assert fast_counters == ref_counters
