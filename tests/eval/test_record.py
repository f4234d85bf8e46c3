"""Run records: the oracle cell, the shared classifier's key diff,
replay of cross-perturbed cells, the format guard, the smoke result."""

import json

import pytest

from repro.errors import RecordFormatError
from repro.eval import record as record_mod
from repro.eval.cli import main
from repro.eval.record import (RunRecord, SmokeResult, replay,
                               state_diff)
from repro.faults import chaos_repair_suite, default_plans


def cross_plan():
    """One chaos plan whose cell also perturbs the schedule."""
    return default_plans([3], workloads=("histogramfs",), scale=0.05,
                         schedule={"policy": "random", "seed": 5})[0]


class TestOracleCell:
    def test_drops_every_perturbation(self):
        plan = RunRecord(
            cell={"name": "histogram", "system": "tmi-protect",
                  "scale": 0.1, "nthreads": 2, "sanitize": True,
                  "max_cycles": 10, "schedule": {"policy": "random"},
                  "faults": {"seed": 1, "rates": {}}},
            oracle="pthreads")
        assert plan.oracle_cell() == {
            "name": "histogram", "system": "pthreads", "scale": 0.1,
            "nthreads": 2, "collect_state": True}
        # the record's own cell is untouched
        assert plan.cell["system"] == "tmi-protect"


class TestStateDiff:
    def test_both_sides_and_missing_keys(self):
        assert state_diff({"a": 1, "b": 2}, {"a": 1, "b": 3, "c": 0}) \
            == ["b", "c"]
        assert state_diff({"a": 1}, None) == ["a"]
        assert state_diff({"a": 1}, {"a": 1}) == []


class TestCrossPerturbedReplay:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("cross")
        report = chaos_repair_suite([cross_plan()], jobs=1,
                                    out_dir=str(out_dir))
        return report.cells[0]

    def test_replays_schedule_and_faults(self, saved):
        assert saved.verdict in ("ok", "degraded")
        assert saved.plan.injections, "the plan injected nothing"
        matches, detail, outcome = replay(saved.artifact)
        assert matches, detail
        assert outcome.trace["policy"] == "random"
        assert outcome.trace["seed"] == 5
        assert outcome.faults["counts"] == saved.plan.injections

    def test_tampered_injection_counts_do_not_match(self, saved):
        plan = RunRecord.load(saved.artifact)
        plan.injections = {point: n + 1
                           for point, n in plan.injections.items()}
        matches, detail, _ = replay(plan)
        assert not matches
        assert "injection counts" in detail

    def test_recorded_failure_must_recur(self, saved):
        plan = RunRecord.load(saved.artifact)
        plan.failure = {"kind": "state-mismatch", "detail": "",
                        "signatures": []}
        matches, detail, _ = replay(plan)
        assert not matches
        assert "expected 'state-mismatch'" in detail


class TestOldFormatsRefused:
    @pytest.mark.parametrize("tag", ["repro-schedule-trace/1",
                                     "repro-fault-plan/1"])
    def test_replay_and_cli_refuse_before_running(self, tag, tmp_path,
                                                  monkeypatch):
        def never(**kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(record_mod, "run_workload", never)
        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "format": tag, "workload": "racy-flag",
            "system": "pthreads", "seed": 0}))
        with pytest.raises(RecordFormatError, match="unsupported"):
            replay(str(path))
        with pytest.raises(RecordFormatError, match="unsupported"):
            main(["replay", str(path)])


class TestSmokeResult:
    def test_summary_is_checks_then_explanation(self):
        result = SmokeResult(
            checks=[("a", True, "fine"), ("b", False, "broken")],
            reports={}, explanation=["  cell line"])
        assert not result.ok
        assert result.summary_lines() == [
            "[PASS] a: fine", "[FAIL] b: broken", "  cell line"]
