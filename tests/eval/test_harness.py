"""Evaluation harness: runner semantics, report rendering, registry."""

import pytest

from repro.eval import (HANG, INCOMPATIBLE, INVALID, OK, SYSTEM_NAMES,
                        experiments, make_runtime, run_matrix,
                        run_workload)
from repro.eval.report import format_table, geomean
from repro.eval.systems import workload_variant


class TestSystems:
    def test_all_systems_instantiate(self):
        for name in SYSTEM_NAMES:
            runtime = make_runtime(name)
            assert runtime is not None

    def test_unknown_system_raises(self):
        with pytest.raises(KeyError):
            make_runtime("magic")

    def test_manual_runs_fixed_variant(self):
        assert workload_variant("manual") == "fixed"
        assert workload_variant("tmi-protect") == "default"


class TestRunner:
    def test_ok_outcome(self):
        outcome = run_workload("swaptions", "pthreads", scale=0.05)
        assert outcome.ok and outcome.status == OK
        assert outcome.cycles > 0

    def test_incompatible_outcome(self):
        outcome = run_workload("ocean-ncp", "sheriff-detect", scale=0.05)
        assert outcome.status == INCOMPATIBLE
        assert outcome.result is None

    def test_hang_outcome(self):
        outcome = run_workload("cholesky", "sheriff-protect")
        assert outcome.status == HANG

    def test_invalid_outcome(self):
        outcome = run_workload("shptr-relaxed", "sheriff-protect",
                               scale=0.3)
        assert outcome.status == INVALID

    def test_matrix_shape(self):
        grid = run_matrix(["swaptions", "histogram"],
                          ["pthreads", "tmi-alloc"], scale=0.05)
        assert set(grid) == {"swaptions", "histogram"}
        assert set(grid["swaptions"]) == {"pthreads", "tmi-alloc"}
        assert all(o.ok for row in grid.values()
                   for o in row.values())


class TestJobs:
    def test_ablation_fans_out_and_renders_the_same(self, monkeypatch):
        """One ``run_cells`` call, so ``--jobs`` reaches it."""
        real, calls, texts = experiments.run_cells, [], []
        monkeypatch.setattr(experiments, "run_cells", lambda cells: (
            calls.append(len(cells)) or real(cells)))
        for jobs in ("1", "2"):
            monkeypatch.setenv("REPRO_JOBS", jobs)
            texts.append(experiments.ablation_code_centric(scale=0.05).text)
        assert calls == [3, 3] and texts[0] == texts[1]


class TestReport:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [(1, 2.5), ("xx", "y")],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.50" in text

    def test_geomean(self):
        assert geomean([2, 8]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        assert geomean([0, 5]) == pytest.approx(5.0)

    def test_table2_renders_without_running_anything(self):
        result = experiments.table2()
        assert "TSO" in result.text
        assert "[PTSB]" in result.text
