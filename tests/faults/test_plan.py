"""Fault plans: chaos records' versioned round-trips and rate tables."""

import json
import os

import pytest

from repro.errors import FaultPlanError, RecordFormatError
from repro.eval.record import RECORD_FORMAT, RunRecord
from repro.eval.runner import run_workload
from repro.faults import FaultInjector, default_plans, default_rates


def make_plan():
    return RunRecord(
        cell={"name": "histogram", "system": "tmi-protect", "scale": 0.1,
              "collect_state": True,
              "faults": {"seed": 11, "rates": {"ptrace.fork_fail": 0.2},
                         "limits": {"ptrace.fork_fail": 5}}},
        oracle="pthreads", injections={"ptrace.fork_fail": 2},
        origin={"campaign": "chaos", "seed": 11})


class TestRoundTrip:
    def test_to_from_dict(self):
        plan = make_plan()
        data = plan.to_dict()
        assert data["format"] == RECORD_FORMAT
        clone = RunRecord.from_dict(data)
        assert clone == plan

    def test_wrong_format_rejected(self):
        data = make_plan().to_dict()
        for tag in ("repro-fault-plan/1", "repro-run-record/999"):
            data["format"] = tag
            with pytest.raises(RecordFormatError, match="unsupported"):
                RunRecord.from_dict(data)

    def test_save_load_default_name(self, tmp_path):
        plan = make_plan()
        path = plan.save(out_dir=str(tmp_path))
        assert os.path.basename(path) == "histogram-tmi-protect-f11.json"
        assert json.load(open(path))["format"] == RECORD_FORMAT
        assert RunRecord.load(path) == plan


class TestValidation:
    def test_unknown_point_rejected_at_construction(self, monkeypatch):
        """A spec naming an unknown point fails while the run is being
        built, before the first simulated cycle."""
        from repro.engine import Engine

        def never(self):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(Engine, "run", never)
        with pytest.raises(FaultPlanError, match="unknown fault point"):
            run_workload("histogram", "tmi-protect", scale=0.05,
                         faults={"seed": 0, "rates": {"bad.point": 0.1}})

    def test_spec_feeds_the_injector(self):
        spec = default_plans([11], workloads=("histogram",))[0] \
            .cell["faults"]
        assert set(spec) == {"seed", "rates", "limits"}
        assert spec["seed"] == 11
        assert spec["rates"] == default_rates(2.0)
        assert FaultInjector(**spec).seed == 11


class TestDefaultRates:
    def test_intensity_scales(self):
        base = default_rates()
        double = default_rates(2.0)
        assert double["perf.record_drop"] == \
            pytest.approx(2 * base["perf.record_drop"])

    def test_rates_capped_below_certainty(self):
        assert all(rate <= 0.9 for rate in default_rates(50.0).values())
