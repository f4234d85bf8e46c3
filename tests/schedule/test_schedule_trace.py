"""Fuzz records: round-trip, versioning, the replay spec, signatures."""

import json

import pytest

from repro.errors import RecordFormatError
from repro.eval.record import RECORD_FORMAT, RunRecord, race_signatures
from repro.schedule import fuzz_workload


def sample_trace():
    return RunRecord(
        cell={"name": "racy-flag", "system": "pthreads", "scale": 1.0,
              "nthreads": 2, "sanitize": True, "collect_state": True,
              "max_cycles": 123_456,
              "schedule": {"policy": "replay",
                           "decisions": [0, 1, 1, 0, 2]}},
        oracle="pthreads",
        failure={"kind": "race", "detail": "1 data race(s)",
                 "signatures": [["data-race", "payload", 512]]},
        origin={"campaign": "fuzz", "policy": "random", "seed": 9})


class TestRoundTrip:
    def test_dict_round_trip(self):
        trace = sample_trace()
        again = RunRecord.from_dict(trace.to_dict())
        assert again == trace

    def test_format_tag_present(self):
        assert sample_trace().to_dict()["format"] == RECORD_FORMAT

    def test_wrong_format_rejected(self):
        data = sample_trace().to_dict()
        for tag in ("repro-run-record/999", "repro-schedule-trace/1"):
            data["format"] = tag
            with pytest.raises(RecordFormatError, match="unsupported"):
                RunRecord.from_dict(data)

    def test_missing_format_rejected(self):
        data = sample_trace().to_dict()
        del data["format"]
        with pytest.raises(RecordFormatError, match="unsupported"):
            RunRecord.from_dict(data)


class TestSaveLoad:
    def test_save_load(self, tmp_path):
        trace = sample_trace()
        path = trace.save(out_dir=str(tmp_path))
        assert path.endswith("racy-flag-pthreads-random-s9.json")
        assert RunRecord.load(path) == trace
        # the artifact is plain versioned JSON
        data = json.loads((tmp_path / trace.default_name()).read_text())
        assert data["format"] == RECORD_FORMAT
        assert data["cell"]["schedule"]["decisions"] == [0, 1, 1, 0, 2]

    def test_explicit_path(self, tmp_path):
        target = tmp_path / "repro.json"
        assert sample_trace().save(path=str(target)) == str(target)
        assert target.exists()


class TestPolicySpec:
    def test_replay_spec(self, tmp_path):
        """A finding's record replays its decision log: the cell's
        schedule is the replay spec of the (shrunk) log, and the
        fuzzed system is the oracle."""
        report = fuzz_workload("racy-flag", seeds=1, scale=1.0, jobs=1,
                               out_dir=str(tmp_path), max_shrinks=1)
        finding = report.findings[0]
        record = RunRecord.load(finding.artifact)
        assert record.cell["schedule"] == {
            "policy": "replay", "decisions": finding.decisions}
        assert record.oracle == "pthreads"
        assert record.origin == {"campaign": "fuzz", "policy": "random",
                                 "seed": finding.seed}
        assert "schedule" not in record.oracle_cell()


class TestRaceSignatures:
    def test_none_report(self):
        assert race_signatures(None) == []

    def test_sorted_triples(self):
        class F:
            def __init__(self, rule, label, line_va):
                self.rule = rule
                self.label = label
                self.line_va = line_va

        class R:
            findings = [F("data-race", "b", 128), F("data-race", "a", 64)]

        assert race_signatures(R()) == [["data-race", "a", 64],
                                        ["data-race", "b", 128]]
