"""Static linter: FS prediction accuracy, feature cross-checks, clean
runs over the shipped registry workloads."""

import pytest

from repro.analysis import ERROR, WARNING, lint_program, lint_workload
from repro.analysis.ground_truth import (collect_ground_truth,
                                         precision_recall)
from repro.workloads import get as get_workload

#: Phoenix kernels with a deliberately seeded false-sharing layout.
PHOENIX_FS = ("histogramfs", "lreg", "stringmatch")


class TestPhoenixAccuracy:
    """Acceptance bar: recall 1.0 against simulated HITM ground truth."""

    @pytest.mark.parametrize("name", PHOENIX_FS)
    def test_recall_is_one_on_seeded_false_sharing(self, name):
        report = lint_workload(name, scale=0.05)
        truth = collect_ground_truth(get_workload(name, scale=0.05))
        assert truth.false_lines, f"{name}: ground truth found no FS"
        precision, recall, tp, fp, fn = precision_recall(
            report.predicted_false, truth.false_lines)
        assert recall == 1.0, (name, tp, fn, report.format())
        assert precision == 1.0, (name, tp, fp, report.format())

    def test_fixed_variant_predicts_no_false_sharing(self):
        report = lint_workload("histogramfs", scale=0.05, variant="fixed")
        assert report.predicted_false == []


class TestFeatureCrossCheck:
    def test_declared_fs_without_findings_is_error(self):
        # The fixed variant keeps has_false_sharing=False, so force the
        # declaration through a default build at a scale where the
        # linter still sees the boundary lines -- then lie about it by
        # linting the padded layout under the default feature set.
        from repro.engine import Program
        from repro.isa import Binary

        def main(t):
            yield from t.compute(1)

        program = Program("liar", Binary("liar"), main, nthreads=2)
        program.features.has_false_sharing = True
        report = lint_program(program)
        rules = [f.rule for f in report.findings]
        assert "feature-mismatch" in rules
        assert report.error_count >= 1

    def test_undeclared_atomics_is_error(self):
        from repro.engine import Program
        from repro.isa import Binary

        def main(t):
            buf = yield from t.malloc(64, align=64)
            yield from t.atomic_add(buf, 1, 8)

        program = Program("sneaky", Binary("sneaky"), main, nthreads=1)
        assert not program.features.uses_atomics
        report = lint_program(program)
        bad = [f for f in report.findings
               if f.rule == "feature-mismatch" and f.severity == ERROR]
        assert bad, report.format()

    def test_declared_unused_atomics_is_warning(self):
        from repro.engine import Program
        from repro.isa import Binary

        def main(t):
            yield from t.compute(1)

        program = Program("braggart", Binary("braggart"), main,
                          nthreads=1)
        program.features.uses_atomics = True
        report = lint_program(program)
        unused = [f for f in report.findings
                  if f.rule == "feature-unused" and f.severity == WARNING]
        assert unused, report.format()


class TestRegistryClean:
    """Every shipped workload lints without errors (the CI gate)."""

    @pytest.mark.parametrize("name",
                             ("histogramfs", "kmeans", "spinlockpool",
                              "cholesky", "racy-flag", "leveldb-fs"))
    def test_workload_lints_clean(self, name):
        report = lint_workload(name, scale=0.05)
        assert report.ok, report.format()

    def test_known_fs_workloads_are_predicted(self):
        for name in ("histogramfs", "lreg", "spinlockpool"):
            report = lint_workload(name, scale=0.05)
            assert report.predicted_false, report.format()


class TestJsonReport:
    """The machine-readable repro-lint-report/1 schema must stay
    stable: CI pipelines parse it (see .github/workflows/ci.yml)."""

    def test_report_dict_schema(self):
        import json

        from repro.analysis.lint import LINT_FORMAT

        doc = lint_workload("histogramfs", scale=0.05).to_dict()
        assert doc["format"] == LINT_FORMAT == "repro-lint-report/1"
        assert sorted(doc.keys()) == [
            "counts", "findings", "format", "ok", "ops",
            "predicted_false", "predicted_true", "threads",
            "truncated", "workload"]
        for finding in doc["findings"]:
            assert {"rule", "severity", "message"} <= set(finding)
        json.dumps(doc, sort_keys=True)  # must be JSON-serializable

    def test_report_dict_is_deterministic(self):
        import json

        first = json.dumps(lint_workload("lreg", scale=0.05).to_dict(),
                           sort_keys=True)
        second = json.dumps(lint_workload("lreg", scale=0.05).to_dict(),
                            sort_keys=True)
        assert first == second

    def test_meets_severity_thresholds(self):
        from repro.analysis.findings import meets_severity

        findings = lint_workload("histogramfs", scale=0.05).findings
        assert findings  # info-level false-sharing predictions
        assert meets_severity(findings, "info")
        assert not meets_severity(findings, "error")
        assert not meets_severity([], "info")


class TestLintAccuracyExperiment:
    """The ``lint-accuracy`` experiment at its default scale over the
    repair suite: the linter predicts exactly the false-sharing lines
    the simulated HITM ground truth finds (DESIGN.md's 1.00/1.00)."""

    def test_default_scale_is_exact(self):
        from repro.eval.experiments import lint_accuracy
        from repro.workloads import repair_suite_names

        result = lint_accuracy()
        data = result.data
        assert data["scale"] == 0.1
        assert list(data["workloads"]) == list(repair_suite_names())
        for name, row in data["workloads"].items():
            assert row["ground_truth"] > 0, name
            assert row["fp"] == row["fn"] == 0, (name, row)
        assert data["precision"] == data["recall"] == 1.0
