"""Fuzz driver end-to-end: finding, shrinking, records, replay.

Serial (``jobs=1``) so the tests stay fast and debuggable; the
process-pool fan-out path is covered by the eval harness tests.
"""

from repro.eval.record import (RACE, STATE_MISMATCH, RunRecord,
                               classify_outcome, replay)
from repro.eval.runner import BUDGET, OK, RunOutcome, run_workload
from repro.schedule import fuzz_workload


class TestClassifyOutcome:
    def _outcome(self, status=OK, analysis=None, final_state=None,
                 detail=""):
        return RunOutcome("w", "s", status, detail=detail,
                          analysis=analysis, final_state=final_state)

    def test_clean(self):
        kind, _, sigs = classify_outcome(self._outcome())
        assert kind is None and sigs == []

    def test_status_passthrough(self):
        kind, detail, _ = classify_outcome(
            self._outcome(status=BUDGET, detail="boom"))
        assert kind == BUDGET and detail == "boom"

    def test_race(self):
        class F:
            rule, label, line_va = "data-race", "x", 64

        class R:
            findings = [F()]

        kind, _, sigs = classify_outcome(self._outcome(analysis=R()))
        assert kind == RACE
        assert sigs == [["data-race", "x", 64]]

    def test_state_mismatch(self):
        kind, detail, _ = classify_outcome(
            self._outcome(final_state={"total": 2}), {"total": 1})
        assert kind == STATE_MISMATCH
        assert "total" in detail

    def test_matching_state_is_clean(self):
        kind, _, _ = classify_outcome(
            self._outcome(final_state={"total": 1}), {"total": 1})
        assert kind is None


class TestFuzzFindsRace:
    def test_racy_flag(self, tmp_path):
        report = fuzz_workload("racy-flag", seeds=2, scale=1.0, jobs=1,
                               out_dir=str(tmp_path), max_shrinks=1)
        assert not report.ok
        races = [f for f in report.findings if f.kind == RACE]
        assert races, [f.kind for f in report.findings]
        finding = races[0]
        assert finding.signatures
        assert finding.artifact is not None
        record = RunRecord.load(finding.artifact)
        assert record.failure["kind"] == RACE
        assert record.failure["signatures"] == [
            list(s) for s in finding.signatures]

    def test_replay_reproduces_identical_finding(self, tmp_path):
        report = fuzz_workload("racy-flag", seeds=1, scale=1.0, jobs=1,
                               out_dir=str(tmp_path))
        matches, detail, outcome = replay(report.findings[0].artifact)
        assert matches, detail
        assert "kind='race'" in detail
        assert outcome.analysis.findings

    def test_clean_workload_has_no_findings(self, tmp_path):
        report = fuzz_workload("histogram", seeds=2, scale=0.03, jobs=1,
                               out_dir=str(tmp_path))
        assert report.ok, [
            (f.kind, f.detail) for f in report.findings]
        assert report.baseline_status == OK
        assert report.baseline_signatures == []


class TestLivelockBudget:
    """A schedule that exhausts the cycle budget must come back as a
    replayable artifact, never as a harness hang."""

    def test_budget_outcome_carries_trace(self):
        outcome = run_workload("racy-flag", "pthreads", max_cycles=4_000,
                               schedule={"policy": "random", "seed": 0})
        assert outcome.status == BUDGET
        assert outcome.trace is not None
        assert outcome.trace["policy"] == "random"

    def test_budget_finding_is_replayable(self, tmp_path):
        report = fuzz_workload("racy-flag", seeds=1, scale=1.0, jobs=1,
                               max_cycles=4_000, sanitize=False,
                               out_dir=str(tmp_path), shrink=False)
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.kind == BUDGET
        matches, detail, outcome = replay(finding.artifact)
        assert outcome.status == BUDGET
        assert matches, detail


class TestBudgetBound:
    def test_expired_budget_stops_launching(self, tmp_path):
        report = fuzz_workload("racy-flag", seeds=64, scale=1.0, jobs=1,
                               budget=0.0, out_dir=str(tmp_path))
        assert report.budget_exhausted
        assert report.seeds == []


class TestSmokeFuzz:
    def test_smoke_passes_and_reports(self, tmp_path, monkeypatch):
        from repro.schedule import smoke_fuzz
        monkeypatch.setenv("REPRO_JOBS", "1")
        result = smoke_fuzz(seeds=2, budget=45.0, jobs=1,
                            out_dir=str(tmp_path))
        assert result.ok, result.summary_lines()
        names = [name for name, _, _ in result.checks]
        assert len(names) == 3
        lines = result.summary_lines()
        assert all(line.startswith("[PASS]") for line in lines)
        # both controls ran and reported
        assert "racy-flag" in result.reports
        assert "histogram" in result.reports
        assert result.reports["histogram"].ok
        for line in result.reports["racy-flag"].summary_lines():
            assert isinstance(line, str)


class TestSmokeSummaryArtifacts:
    """A failing smoke run must print every finding's replay artifact;
    a passing one stays terse (the positive control finds races by
    design)."""

    def _result(self, passed):
        from repro.schedule.fuzz import (FuzzFinding, FuzzReport,
                                         _smoke_result)
        finding = FuzzFinding(
            workload="histogram", system="pthreads", policy="random",
            seed=3, kind=STATE_MISMATCH,
            artifact="results/fuzz/histogram-pthreads-random-3.json")
        report = FuzzReport(
            workload="histogram", system="pthreads", policy="random",
            scale=0.05, seeds=[3], max_cycles=None, findings=[finding],
            baseline_status=OK, baseline_signatures=[], elapsed=0.1)
        return _smoke_result(
            checks=[("histogram: race-free workload fuzzes clean",
                     passed, "1 finding(s) over 1 seed(s)")],
            reports={"histogram": report})

    def test_failing_smoke_lists_artifacts(self):
        lines = self._result(passed=False).summary_lines()
        text = "\n".join(lines)
        assert "[FAIL]" in text
        assert "results/fuzz/histogram-pthreads-random-3.json" in text
        assert "replay artifacts:" in text

    def test_passing_smoke_stays_terse(self):
        lines = self._result(passed=True).summary_lines()
        assert all(line.startswith("[PASS]") for line in lines)


class TestShrunkArtifact:
    def test_shrunk_log_still_reproduces(self, tmp_path):
        report = fuzz_workload("racy-flag", seeds=1, scale=1.0, jobs=1,
                               out_dir=str(tmp_path), max_shrinks=1)
        finding = report.findings[0]
        assert finding.shrunk_from is not None
        assert len(finding.decisions) <= finding.shrunk_from
        assert replay(finding.artifact)[0]
