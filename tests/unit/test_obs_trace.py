"""Unit tests for the flight recorder: spans, caps, deterministic exports."""

import json

import pytest

from repro.obs.schema import (
    SchemaError,
    validate_chrome_trace,
    validate_trace_jsonl,
)
from repro.obs.trace import FlightRecorder


class _FakeEnv:
    def __init__(self) -> None:
        self.now = 0


def _recorder(**kwargs) -> FlightRecorder:
    recorder = FlightRecorder(**kwargs)
    recorder.bind_clock(_FakeEnv())
    return recorder


class TestFlightRecorder:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            FlightRecorder(sample_every=0)
        with pytest.raises(ValueError):
            FlightRecorder(max_events=0)

    def test_park_span_lifecycle_evicted(self):
        recorder = _recorder()
        recorder._clock.now = 100
        recorder.payload_parked("srv0", 7, clk=3, pkt_id="gen0#0")
        recorder._clock.now = 900
        recorder.slot_evicted("srv0", 7)
        (span,) = recorder.park_spans()
        assert span["outcome"] == "evicted"
        assert span["start_ns"] == 100 and span["end_ns"] == 900
        assert span["pkt"] == "gen0#0" and span["slot"] == 7
        assert recorder.spans_closed == 1

    @pytest.mark.parametrize(
        "close,outcome",
        [
            (lambda r: r.slot_merged("b", 1), "merged"),
            (lambda r: r.slot_drained("b", 1), "drained"),
            (lambda r: r.slot_released("b", 1, "explicit-drop"), "explicit-drop"),
        ],
    )
    def test_every_close_path_labels_its_outcome(self, close, outcome):
        recorder = _recorder()
        recorder.payload_parked("b", 1, clk=0, pkt_id="p")
        close(recorder)
        assert recorder.park_spans()[0]["outcome"] == outcome

    def test_premature_eviction_is_recorded_as_an_event(self):
        recorder = _recorder()
        recorder.premature_eviction("b", 3, pkt_id="gen0#1")
        (record,) = recorder.records
        assert (record["ev"], record["binding"], record["slot"], record["pkt"]) == (
            "premature_eviction", "b", 3, "gen0#1")

    def test_unsampled_park_opens_no_span(self):
        recorder = _recorder()
        recorder.payload_parked("b", 1, clk=0, pkt_id=None)
        recorder.slot_evicted("b", 1)
        assert recorder.records == []
        assert recorder.spans_closed == 0

    def test_close_without_open_is_a_noop(self):
        recorder = _recorder()
        recorder.slot_evicted("b", 99)
        assert recorder.records == [] and recorder.spans_closed == 0

    def test_finalize_closes_open_spans_deterministically(self):
        recorder = _recorder()
        recorder.payload_parked("b", 5, clk=0, pkt_id="p5")
        recorder.payload_parked("a", 2, clk=0, pkt_id="p2")
        recorder.finalize(1_000)
        spans = recorder.park_spans()
        assert [span["outcome"] for span in spans] == ["open", "open"]
        # Sorted by (binding, slot), independent of park order.
        assert [(span["binding"], span["slot"]) for span in spans] == [("a", 2), ("b", 5)]

    def test_max_events_cap_counts_dropped_records(self):
        recorder = _recorder(max_events=3)
        for index in range(5):
            recorder.packet_generated(f"g#{index}", index, port=0, wire_bytes=64)
        assert len(recorder.records) == 3
        assert recorder.dropped_records == 2
        summary = validate_trace_jsonl(recorder.to_jsonl())
        assert summary["dropped_records"] == 2

    def test_fault_params_filtered_to_scalars(self):
        recorder = _recorder()
        recorder.fault_applied(
            "link_down", 50, 100, {"link": "server", "links": ["a"], "frac": 0.5}
        )
        (fault,) = recorder.fault_windows()
        assert fault["params"] == {"link": "server", "frac": 0.5}

    def test_jsonl_is_byte_deterministic(self):
        def build() -> str:
            recorder = _recorder()
            recorder.packet_generated("g#0", 10, port=1, wire_bytes=1500)
            recorder.payload_parked("srv0", 0, clk=1, pkt_id="g#0")
            recorder._clock.now = 400
            recorder.slot_merged("srv0", 0)
            recorder.packet_delivered("g#0", 500, latency_ns=490)
            recorder.finalize(1_000)
            return recorder.to_jsonl()

        assert build() == build()

    def test_jsonl_layout_header_records_summary(self):
        recorder = _recorder()
        recorder.packet_generated("g#0", 10, port=1, wire_bytes=64)
        recorder.packet_dropped("g#0", 20, where="sw0", reason="no-egress-decision")
        lines = recorder.to_jsonl().splitlines()
        header, summary = json.loads(lines[0]), json.loads(lines[-1])
        assert header["type"] == "header" and header["schema"] == "repro.trace/v1"
        assert summary == {
            "type": "summary", "records": 2, "spans_closed": 0, "dropped_records": 0
        }
        validate_trace_jsonl(recorder.to_jsonl())

    def test_chrome_export_derives_packet_and_park_spans(self):
        recorder = _recorder()
        recorder.packet_generated("g#0", 1_000, port=0, wire_bytes=64)
        recorder.payload_parked("srv0", 3, clk=0, pkt_id="g#0")
        recorder._clock.now = 5_000
        recorder.slot_evicted("srv0", 3)
        recorder.packet_delivered("g#0", 9_000, latency_ns=8_000)
        recorder.fault_applied("link_down", 2_000, 3_000, {"link": "server"})
        chrome = validate_chrome_trace(recorder.to_chrome())
        spans = [ev for ev in chrome["traceEvents"] if ev["ph"] == "X"]
        names = {ev["name"] for ev in spans}
        assert "pkt:deliver" in names
        assert "park[srv0/3]:evicted" in names
        assert "fault:link_down" in names
        pkt_span = next(ev for ev in spans if ev["name"] == "pkt:deliver")
        # Chrome timestamps are microseconds.
        assert pkt_span["ts"] == pytest.approx(1.0)
        assert pkt_span["dur"] == pytest.approx(8.0)

    def test_inflight_packets_render_as_instants_only(self):
        recorder = _recorder()
        recorder.packet_generated("g#0", 0, port=0, wire_bytes=64)
        chrome = recorder.to_chrome()
        assert not [ev for ev in chrome["traceEvents"] if ev["ph"] == "X"]

    def test_schema_rejects_truncated_jsonl(self):
        recorder = _recorder()
        recorder.packet_generated("g#0", 0, port=0, wire_bytes=64)
        text = recorder.to_jsonl()
        # Drop the summary line: the record count can no longer reconcile.
        truncated = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(SchemaError):
            validate_trace_jsonl(truncated)
