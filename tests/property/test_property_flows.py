"""The lazy flow population against the eager list it replaced.

``FlowGenerator.flows()`` used to be ``[_make_flow(i) for i in
range(flow_count)]``; that comprehension lives on here as the oracle.
Every read the lazy population offers — index, negative index, slice,
slice of a slice, iteration, the wrapping read — and every consumer in
``src/`` (the two samplers, ``repro workload preview``) must see exactly
what it would have seen over the list.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.packet.flows import FLOW_SLOTS, FlowGenerator
from repro.workloads import HeavyTailFlows, workload_names
from repro.workloads.flowmodels import _HeavyTailSampler, _RoundRobinSampler


def eager_flows(generator):
    """The oracle: the whole population, built up front."""
    return [generator._make_flow(index) for index in range(generator.flow_count)]


counts = st.integers(min_value=1, max_value=300)
# Indices well past either end: in-range ones must match the list, the
# others must raise IndexError as the list does.
indices = st.lists(st.integers(min_value=-700, max_value=700), max_size=40)
bounds = st.one_of(st.none(), st.integers(min_value=-400, max_value=400))
steps = st.one_of(st.none(), st.integers(min_value=-5, max_value=5).filter(bool))
slices = st.builds(slice, bounds, bounds, steps)


class TestLazyPopulationEqualsEagerList:
    @settings(max_examples=200, deadline=None)
    @given(counts, indices)
    def test_indexing(self, flow_count, reads):
        FLOW_SLOTS.clear()  # slots are shared per process: start from none built
        generator = FlowGenerator(flow_count=flow_count)
        lazy, oracle = generator.flows(), eager_flows(generator)
        assert len(lazy) == len(oracle)
        for index in reads:
            if -flow_count <= index < flow_count:
                assert lazy[index] == oracle[index]
                assert lazy[index] is lazy[index]
                assert lazy[index] is lazy[index % flow_count]
            else:
                with pytest.raises(IndexError):
                    lazy[index]
            assert lazy.wrap(index) == oracle[index % flow_count]
            assert generator.flow(index) is lazy.wrap(index)
        touched = {index % flow_count for index in reads}
        assert {i for i, flow in enumerate(lazy.slots) if flow is not None} == touched

    @settings(max_examples=200, deadline=None)
    @given(counts, slices, slices)
    def test_slices_are_views_on_the_same_slots(self, flow_count, first, second):
        FLOW_SLOTS.clear()
        generator = FlowGenerator(flow_count=flow_count)
        lazy, oracle = generator.flows(), eager_flows(generator)
        view, expected = lazy[first], oracle[first]
        assert lazy.slots.count(None) == flow_count  # slicing reads nothing
        assert len(view) == len(expected) and bool(view) == bool(expected)
        assert list(view) == expected
        assert list(view[second]) == expected[second]
        # What the view built is what the population hands out.
        for flow in view:
            assert any(flow is slot for slot in lazy.slots)
        assert list(lazy) == oracle

    @settings(max_examples=50, deadline=None)
    @given(counts)
    def test_iteration_and_identity(self, flow_count):
        generator = FlowGenerator(flow_count=flow_count)
        lazy = generator.flows()
        assert generator.flows() is lazy
        once, again = list(lazy), list(lazy)
        assert once == eager_flows(generator)
        assert all(a is b for a, b in zip(once, again))
        assert all(a is b for a, b in zip(once, reversed(list(reversed(lazy)))))


class TestSamplersOverTheLazyPopulation:
    """Same flows, same RNG draws: ``rng.choice`` sees the same ``len``."""

    @pytest.mark.parametrize("seed", range(25))
    def test_first_2000_flows_match_the_oracle(self, seed, monkeypatch):
        flow_count = random.Random(seed).randrange(2, 600)
        model = HeavyTailFlows(flow_count=flow_count)

        def emitted():
            heavy = _HeavyTailSampler(model, random.Random(seed))
            robin = _RoundRobinSampler(FlowGenerator(flow_count=flow_count).flows())
            return [(heavy.next_flow(), robin.next_flow()) for _ in range(2_000)]

        lazy = emitted()
        monkeypatch.setattr(FlowGenerator, "flows", eager_flows)
        assert emitted() == lazy


def _parent_flow(generator, index):
    return generator.flows()[index % generator.flow_count]


class _EagerPopulation(list):
    """The oracle list, also as its own fully built ``slots``: the preview
    runs a generator node, whose ``PacketFactory`` reads ``slots``."""

    @property
    def slots(self):
        return self


@pytest.mark.parametrize("name", workload_names())
def test_workload_preview_matches_the_oracle(name, capsys, monkeypatch):
    argv = ["workload", "preview", name, "--json", "--packets", "1500"]
    assert main(argv) == 0
    lazy = capsys.readouterr().out
    monkeypatch.setattr(
        FlowGenerator, "flows", lambda generator: _EagerPopulation(eager_flows(generator))
    )
    monkeypatch.setattr(FlowGenerator, "flow", _parent_flow)
    assert main(argv) == 0
    assert capsys.readouterr().out == lazy
