"""Structured event logging: ring, levels, trace stamping, file sink."""

from __future__ import annotations

import json

import pytest

from repro.obs import EventLog, Tracer, read_events
from repro.obs.trace import activate


class TestEmit:
    def test_records_carry_level_event_and_typed_fields(self):
        log = EventLog(clock=lambda: 123.0)
        record = log.emit("job-error", level="error", job_id="j1", retries=2,
                          weird=object())
        assert record["ts"] == 123.0
        assert record["level"] == "error"
        assert record["event"] == "job-error"
        assert record["job_id"] == "j1"
        assert record["retries"] == 2
        assert record["weird"].startswith("<object")  # coerced, not crashed
        json.dumps(record)  # every record must be JSON-serialisable

    def test_below_threshold_events_are_dropped_and_counted(self):
        log = EventLog(level="warning")
        assert log.emit("chatter", level="debug") is None
        assert log.emit("trouble", level="warning") is not None
        assert log.dropped == 1
        assert len(log) == 1

    def test_unknown_levels_raise(self):
        log = EventLog()
        with pytest.raises(ValueError):
            log.emit("x", level="severe")
        with pytest.raises(ValueError):
            EventLog(level="severe")

    def test_ring_is_bounded_but_counts_are_exact(self):
        log = EventLog(max_events=4)
        for index in range(10):
            log.emit("tick", index=index)
        assert len(log) == 4
        assert log.counts_by_level() == {"info": 10}
        assert [r["index"] for r in log.tail()] == [6, 7, 8, 9]

    def test_active_span_stamps_trace_and_span_ids(self):
        tracer = Tracer()
        log = EventLog()
        with activate(tracer):
            with tracer.span("solve") as span:
                record = log.emit("solver-fallback", level="warning")
        assert record["trace_id"] == span.trace_id
        assert record["span_id"] == span.span_id
        assert "trace_id" not in log.emit("no-span")


class TestTail:
    def test_filters_by_level_floor_and_event_name(self):
        log = EventLog()
        log.emit("a", level="debug")
        log.emit("b", level="warning")
        log.emit("b", level="error")
        assert [r["level"] for r in log.tail(level="warning")] == ["warning",
                                                                  "error"]
        assert len(log.tail(event="b")) == 2
        with pytest.raises(ValueError):
            log.tail(level="severe")

    def test_limit_keeps_the_newest(self):
        log = EventLog()
        for index in range(5):
            log.emit("tick", index=index)
        assert [r["index"] for r in log.tail(limit=2)] == [3, 4]

    def test_non_positive_limit_returns_nothing(self):
        log = EventLog()
        for index in range(3):
            log.emit("tick", index=index)
        assert log.tail(limit=0) == []
        assert log.tail(limit=-1) == []


class TestFileSink:
    def test_events_append_as_jsonl_with_owner_tag(self, tmp_path):
        log = EventLog(directory=tmp_path, owner="shard-0")
        log.emit("worker-restart", level="warning", shard=0)
        assert log.path.name == "events.shard-0.jsonl"
        records = read_events(tmp_path)
        assert records[0]["event"] == "worker-restart"
        assert records[0]["owner"] == "shard-0"

    def test_read_events_merges_all_owners(self, tmp_path):
        EventLog(directory=tmp_path, owner="shard-0").emit("a")
        EventLog(directory=tmp_path, owner="shard-1").emit("b")
        EventLog(directory=tmp_path, owner="dispatcher").emit("c")
        assert {r["event"] for r in read_events(tmp_path)} == {"a", "b", "c"}

    def test_sink_rotation_keeps_every_record(self, tmp_path):
        log = EventLog(directory=tmp_path, max_bytes=300)
        for index in range(20):
            log.emit("tick", index=index)
        assert len(read_events(tmp_path)) == 20
        assert len(list(tmp_path.glob("events*.jsonl"))) > 1

    def test_failing_sink_disables_itself_without_raising(self, tmp_path):
        log = EventLog(directory=tmp_path)

        def explode(payload):
            raise OSError("disk full")

        log._sink.write_record = explode
        record = log.emit("job-error", level="error")
        assert record is not None  # the emit itself still succeeded
        assert log.sink_errors == 1
        log.emit("next")  # sink gone; no further errors
        assert log.sink_errors == 1
