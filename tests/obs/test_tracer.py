"""Tracer: event capture, export formats, zero simulation impact.

The end-to-end runs use histogramfs under tmi-protect at a small scale
— the repair pipeline fires (HITM -> PEBS -> detect -> T2P -> PTSB
commits), so the trace exercises every observability hook.
"""

import json

import pytest

from repro.eval.runner import run_workload
from repro.obs import (TRACE_VERSION, Tracer, write_chrome_trace,
                       write_jsonl)


@pytest.fixture(scope="module")
def traced():
    """One traced repair run, shared across this module's tests."""
    outcome = run_workload("histogramfs", "tmi-protect", scale=0.3,
                           trace=True)
    assert outcome.ok, outcome.detail
    return outcome


@pytest.fixture(scope="module")
def untraced():
    outcome = run_workload("histogramfs", "tmi-protect", scale=0.3)
    assert outcome.ok, outcome.detail
    return outcome


class TestTraceContent:
    def test_versioned_with_run_meta(self, traced):
        data = traced.trace_data
        assert data["version"] == TRACE_VERSION
        assert data["meta"]["program"] == "histogramfs"
        assert data["meta"]["system"] == "tmi-protect"
        assert data["meta"]["cycles_per_second"] > 0

    def test_repair_pipeline_kinds_all_present(self, traced):
        counts = traced.trace_data["counts"]
        for kind in ("hitm", "pebs_record", "detect_interval", "t2p",
                     "ptsb_commit"):
            assert counts.get(kind, 0) > 0, (kind, counts)

    def test_counts_match_run_stats(self, traced):
        counts = traced.trace_data["counts"]
        report = traced.result.runtime_report
        assert counts["ptsb_commit"] == report["commits"]
        assert counts["detect_interval"] == report["intervals"]
        assert counts["pebs_record"] == report["perf_records"]

    def test_t2p_records_converted_thread_count(self, traced):
        t2p = [e for e in traced.trace_data["events"]
               if e["kind"] == "t2p"]
        assert t2p[0]["mode"] == "initial"
        assert t2p[0]["threads"] > 1

    def test_access_events_off_by_default(self, traced):
        assert "access" not in traced.trace_data["counts"]

    def test_timestamps_are_simulated_cycles(self, traced):
        for event in traced.trace_data["events"]:
            assert 0 <= event["ts"] <= traced.cycles


class TestZeroOverhead:
    def test_traced_run_is_cycle_identical(self, traced, untraced):
        assert traced.cycles == untraced.cycles
        assert traced.result.runtime_report == \
            untraced.result.runtime_report

    def test_tracer_composes_with_sanitizer(self):
        outcome = run_workload("histogram", "pthreads", scale=0.05,
                               trace=True, sanitize=True)
        assert outcome.ok
        assert outcome.trace_data is not None
        assert outcome.analysis is not None


class TestAccessEvents:
    def test_opt_in_records_accesses(self):
        outcome = run_workload("histogram", "pthreads", scale=0.05,
                               trace="access")
        counts = outcome.trace_data["counts"]
        assert counts.get("access", 0) > 0


class TestJsonlExport:
    def test_header_then_one_event_per_line(self, traced, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_jsonl(traced.trace_data, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["version"] == TRACE_VERSION
        assert len(lines) - 1 == len(traced.trace_data["events"])
        for line in lines[1:]:
            assert "kind" in json.loads(line)


class TestChromeExport:
    @pytest.fixture(scope="class")
    def document(self, traced, tmp_path_factory):
        path = tmp_path_factory.mktemp("chrome") / "trace.json"
        write_chrome_trace(traced.trace_data, path)
        return json.loads(path.read_text())

    def test_is_a_trace_events_document(self, document):
        assert isinstance(document["traceEvents"], list)
        assert document["otherData"]["version"] == TRACE_VERSION

    def test_named_tracks_for_cores_threads_monitor(self, document):
        names = [e["args"]["name"] for e in document["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"]
        assert "core 0" in names
        assert "monitor" in names
        assert any(name.startswith("thread ") for name in names)

    def test_hitm_lands_on_core_tracks(self, document):
        hitm = [e for e in document["traceEvents"]
                if e["ph"] == "i" and e["name"] == "hitm"]
        assert hitm
        assert all(e["pid"] == 0 for e in hitm)

    def test_monitor_track_carries_detector_events(self, document):
        monitor = {e["name"] for e in document["traceEvents"]
                   if e["ph"] == "i" and e["pid"] == 2}
        assert {"pebs_record", "detect_interval", "t2p"} <= monitor

    def test_timestamps_in_microseconds(self, document, traced):
        hz = traced.trace_data["meta"]["cycles_per_second"]
        horizon = traced.cycles / hz * 1e6
        for event in document["traceEvents"]:
            if event["ph"] == "i":
                assert 0 <= event["ts"] <= horizon


class TestTracerUnit:
    def test_counts_sorted_and_stable(self):
        tracer = Tracer()
        tracer._emit("b", 2)
        tracer._emit("a", 1)
        tracer._emit("b", 3)
        assert list(tracer.counts()) == ["a", "b"]
        assert tracer.counts() == {"a": 1, "b": 2}

    def test_trace_data_is_plain_and_picklable(self):
        import pickle

        tracer = Tracer()
        tracer._emit("hitm", 5, core=0)
        data = tracer.trace_data()
        assert pickle.loads(pickle.dumps(data)) == data

