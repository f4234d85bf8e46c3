"""Chaos harness: smoke campaign, records, and plan replay."""

import json
import os

import pytest

from repro.eval.record import RECORD_FORMAT, replay
from repro.faults import (chaos_repair_suite, chaos_smoke,
                          default_plans)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("chaos")
    return chaos_smoke(seeds=3, jobs=1, out_dir=str(out_dir)), out_dir


class TestChaosSmoke:
    def test_all_checks_pass(self, smoke):
        result, _ = smoke
        assert result.ok, "\n".join(result.summary_lines())

    def test_every_cell_has_a_verdict(self, smoke):
        result, _ = smoke
        cells = result.reports["chaos"].cells
        assert len(cells) == 3
        assert all(c.verdict in ("ok", "degraded") for c in cells)

    def test_artifacts_written(self, smoke):
        result, out_dir = smoke
        for cell in result.reports["chaos"].cells:
            assert os.path.exists(cell.artifact)
            data = json.load(open(cell.artifact))
            assert data["format"] == RECORD_FORMAT
            assert data["oracle"] == "pthreads"
            assert data["failure"] == {}

    def test_artifact_replays(self, smoke):
        result, _ = smoke
        busiest = max(result.reports["chaos"].cells,
                      key=lambda c: sum(c.plan.injections.values()))
        matches, detail, outcome = replay(busiest.artifact)
        assert matches, detail
        assert outcome.faults["counts"] == busiest.plan.injections


class TestDefaultPlans:
    def test_seeds_cycle_workloads_and_intensities(self):
        plans = default_plans(5, workloads=("a-wl", "b-wl"), scale=0.2)
        assert [p.cell["name"] for p in plans] == \
            ["a-wl", "b-wl", "a-wl", "b-wl", "a-wl"]
        assert [p.cell["faults"]["seed"] for p in plans] == \
            [0, 1, 2, 3, 4]
        assert [p.origin["seed"] for p in plans] == [0, 1, 2, 3, 4]
        # intensity steps
        assert plans[0].cell["faults"]["rates"] != \
            plans[1].cell["faults"]["rates"]
        assert all(p.cell["scale"] == 0.2 for p in plans)
        assert all(p.oracle == "pthreads" for p in plans)


class TestPlanInput:
    def test_a_generator_of_plans_loses_none(self, tmp_path):
        plans = default_plans([0, 1], workloads=("histogram",),
                              scale=0.02)
        report = chaos_repair_suite(iter(plans), jobs=1,
                                    out_dir=str(tmp_path))
        assert [c.plan.origin["seed"] for c in report.cells] == [0, 1]
