"""The ``repro bench`` gates: one run / check / format, one table row each."""

import itertools
import json
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from repro import bench
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: ``--json`` payload key -> CLI flag.
GATE_FLAGS = {"obs_overhead": "--obs-check"}


class ScriptedClock:
    """Stands in for ``bench.perf_counter``; only the fake arms advance it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def scripted(monkeypatch, key, walls):
    """The real gate *key* on fake arms: 100 units of work per run, taking
    ``walls[arm][round]`` scripted seconds (over again on a second run).
    Floor and gated arm stay the gate's own."""
    clock = ScriptedClock()
    monkeypatch.setattr(bench, "perf_counter", clock)

    def fake_arm(seconds):
        rounds = itertools.cycle(seconds)

        @contextmanager
        def arm():
            def run():
                clock.now += next(rounds)
                return 100

            yield run

        return arm

    gate = replace(
        bench.GATES[key],
        point={},
        rounds=len(next(iter(walls.values()))),
        arms={name: fake_arm(seconds) for name, seconds in walls.items()},
        work=lambda returned: returned,
    )
    assert list(walls) == list(bench.GATES[key].arms)
    monkeypatch.setitem(bench.GATES, key, gate)
    return gate


def walls_at(key, ratio, rounds=3):
    """Scripted seconds putting every arm at *ratio* × the first arm's rate."""
    reference, *others = bench.GATES[key].arms
    return {reference: [1.0] * rounds, **{name: [1.0 / ratio] * rounds for name in others}}


def test_the_table_is_the_gate_ci_runs():
    assert list(bench.GATES) == list(GATE_FLAGS)
    floors = {key: (gate.gated, gate.floor) for key, gate in bench.GATES.items()}
    assert floors == {"obs_overhead": ("disabled", 1.0 - bench.OBS_OVERHEAD_TOLERANCE)}
    assert bench.OBS_OVERHEAD_TOLERANCE == 0.02
    assert {key: (gate.rounds, gate.point) for key, gate in bench.GATES.items()} == {
        "obs_overhead": (3, {"rate_gbps": 10.5, "time_scale": 0.25}),
    }


@pytest.mark.parametrize("key", GATE_FLAGS)
class TestGateOnScriptedArms:
    def test_passes_at_the_floor(self, key, monkeypatch, capsys):
        floor = bench.GATES[key].floor
        gate = scripted(monkeypatch, key, walls_at(key, floor))
        result = bench.run_gate(gate)
        assert result["ratios"][gate.gated] == pytest.approx(floor)
        ok, message = bench.check_gate(gate, result)
        assert ok and message.endswith(": ok")
        assert main(["bench", GATE_FLAGS[key]]) == 0

    def test_fails_when_the_gated_arm_is_5_percent_slower_every_round(
        self, key, monkeypatch, capsys
    ):
        gate = scripted(monkeypatch, key, walls_at(key, bench.GATES[key].floor * 0.95))
        ok, message = bench.check_gate(gate, bench.run_gate(gate))
        assert not ok and message.endswith("REGRESSION")
        assert main(["bench", GATE_FLAGS[key]]) == 3
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err
        assert f"{gate.gated}/{next(iter(gate.arms))} ratio" in captured.out

    def test_takes_the_best_round_and_pairs_arms_within_it(self, key, monkeypatch):
        good = bench.GATES[key].floor * 1.01
        reference, gated = next(iter(bench.GATES[key].arms)), bench.GATES[key].gated
        walls = walls_at(key, good)
        # Rounds 1 and 3: a noisy neighbour hits the gated arm alone.  Round
        # 2: the whole machine runs at half speed, both arms alike — the one
        # clean pair, though neither arm's best time.
        walls[reference] = [1.0, 2.0, 1.0]
        walls[gated] = [1.5 / good, 2.0 / good, 1.4 / good]
        gate = scripted(monkeypatch, key, walls)
        result = bench.run_gate(gate)
        assert result["ratios"][gated] == pytest.approx(good, abs=1e-3)
        assert result["arms"][reference]["wall_s"] == 1.0
        assert result["arms"][gated]["wall_s"] == pytest.approx(1.4 / good, abs=1e-3)
        assert bench.check_gate(gate, result)[0]


#: Each gate's operating point shrunk to a fraction of a second per arm.
SMALL_POINTS = {"obs_overhead": {"rate_gbps": 10.5, "time_scale": 0.02}}


@pytest.mark.parametrize("key", GATE_FLAGS)
def test_the_real_gate_runs_end_to_end(key, monkeypatch, capsys):
    gate = replace(bench.GATES[key], rounds=1, point=SMALL_POINTS[key])
    monkeypatch.setitem(bench.GATES, key, gate)
    # Timing at this scale is noise, so either verdict is fine; a crash is not.
    assert main(["bench", GATE_FLAGS[key], "--json"]) in (0, 3)
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == [key]
    result = payload[key]
    assert set(result) == {
        "point", "rounds", "unit", "arms", "ratios", "gated", "floor",
    }
    assert result["point"] == SMALL_POINTS[key] and result["rounds"] == 1
    assert list(result["arms"]) == list(gate.arms)
    for arm in result["arms"].values():
        assert arm["work"] > 0 and arm["wall_s"] > 0 and arm["rate"] > 0
    assert all(ratio > 0 for ratio in result["ratios"].values())


def canned(gate):
    reference, *others = gate.arms
    arm = {"work": 100, "wall_s": 1.0, "rate": 100.0}
    return {
        "point": dict(gate.point), "rounds": gate.rounds, "unit": gate.unit,
        "arms": {name: dict(arm) for name in gate.arms},
        "ratios": {name: gate.floor for name in others},
        "gated": gate.gated, "floor": gate.floor,
    }


@pytest.fixture()
def stubbed_run_gate(monkeypatch):
    """``run_gate`` replaced by a recorder returning :func:`canned` results."""
    ran = []

    def run_gate(gate):
        ran.append(gate)
        return canned(gate)

    monkeypatch.setattr(bench, "run_gate", run_gate)
    return ran


class TestBenchCli:
    def test_a_gate_flag_runs_that_gate_alone(self, stubbed_run_gate, capsys):
        assert main(["bench", "--obs-check", "--json"]) == 0
        assert stubbed_run_gate == [bench.GATES["obs_overhead"]]
        assert json.loads(capsys.readouterr().out) == {
            "obs_overhead": canned(bench.GATES["obs_overhead"])
        }

    def test_no_flag_runs_every_gate_in_table_order(self, stubbed_run_gate, capsys):
        assert main(["bench"]) == 0
        assert stubbed_run_gate == list(bench.GATES.values())
        out = capsys.readouterr().out
        assert [line.split(":")[0] for line in out.splitlines() if not line.startswith(" ")] == [
            gate.title for gate in bench.GATES.values()
        ]

    def test_bench_leaves_no_file_behind(self, stubbed_run_gate, tmp_path, monkeypatch):
        def snapshot(root):
            return {
                path: (path.stat().st_size, path.stat().st_mtime_ns)
                for path in root.rglob("*") if path.is_file()
            }

        monkeypatch.chdir(tmp_path)
        before = snapshot(REPO_ROOT / "benchmarks")
        assert main(["bench", "--json"]) == 0
        assert list(tmp_path.iterdir()) == []
        assert snapshot(REPO_ROOT / "benchmarks") == before

    @pytest.mark.parametrize("argv", [
        ["--scenario", "fig07"], ["--rate", "6"], ["--time-scale", "0.1"],
        ["--repeat", "3"], ["--quick"], ["--no-artifact"], ["trend"], ["--bus-check"],
    ])
    def test_the_retired_spellings_are_usage_errors(self, argv, stubbed_run_gate, capsys):
        with pytest.raises(SystemExit) as raised:
            main(["bench", *argv])
        assert raised.value.code == 2
        assert stubbed_run_gate == []
