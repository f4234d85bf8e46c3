"""Hardened grid pool: worker death, exceptions, timeouts, REPRO_JOBS.

The flaky-cell worker below dies or sleeps only in *child* processes
(``os.getpid() != _MAIN_PID``), so the parent's run of the same cell
succeeds — which is exactly the recovery path under test.  Raising
cells raise everywhere (or once, when they carry a marker path), which
exercises the one-replay policy in pooled and serial runs alike.
Requires the ``fork`` start method (monkeypatched ``_run_cell``
propagates into forked workers); the whole module is skipped elsewhere.
"""

import multiprocessing
import os
import time

import pytest

from repro.eval import parallel
from repro.eval.parallel import (CELL_FAILED, CELL_OK, CELL_TIMEOUT,
                                 job_count, run_cells,
                                 run_cells_recorded)
from repro.service import CampaignService, CampaignSpec

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="flaky-cell fixture needs fork-inherited monkeypatching")

_MAIN_PID = os.getpid()


def _flaky_cell(cell):
    """Stand-in for ``run_workload``: dies/sleeps only in children.

    ``log`` names a file that gains one byte per run, in any process;
    ``raise_once`` names a marker: the first run creates it and raises.
    """
    if cell.get("log"):
        with open(cell["log"], "a") as fh:
            fh.write("x")
    in_child = os.getpid() != _MAIN_PID
    if cell.get("die") and in_child:
        os._exit(3)                  # simulate a segfaulted worker
    if cell.get("sleep") and in_child:
        time.sleep(cell["sleep"])
    if cell.get("raise"):
        raise ValueError("boom")
    marker = cell.get("raise_once")
    if marker and not os.path.exists(marker):
        open(marker, "w").close()
        raise ValueError("transient")
    return dict(cell, ran_in=os.getpid())


def _die_on_histogramfs(cell):
    """Campaign-cell stand-in whose histogramfs worker dies."""
    if cell["name"] == "histogramfs" and os.getpid() != _MAIN_PID:
        os._exit(3)
    return dict(cell, ran=True)


def runs(path):
    return len(open(path).read())


@pytest.fixture
def flaky_pool(monkeypatch):
    monkeypatch.setattr(parallel, "_run_cell", _flaky_cell)


class TestJobCount:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert job_count(3) == 3

    def test_env_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert job_count() == 5

    def test_malformed_env_warns_and_pins_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.warns(RuntimeWarning, match="REPRO_JOBS='many'"):
            assert job_count() == 1

    def test_floor_of_one(self):
        assert job_count(0) == 1
        assert job_count(-4) == 1


class TestBrokenPool:
    def test_dead_worker_cells_retried_serially(self, flaky_pool):
        cells = [{"id": 0}, {"id": 1, "die": True}, {"id": 2}]
        records = run_cells_recorded(cells, jobs=2)
        assert [r.status for r in records] == [CELL_OK] * 3
        died = records[1]
        assert died.retried
        assert not died.replayed    # a recovery, not a replay
        assert died.outcome["ran_in"] == _MAIN_PID   # serial re-run
        # only cells the pool never finished are marked retried
        assert not any(r.retried for r in records
                       if not r.cell.get("die")
                       and r.outcome["ran_in"] != _MAIN_PID)

    def test_recovered_cell_that_raises_gets_its_replay(self,
                                                        flaky_pool):
        cells = [{"id": 0}, {"id": 1, "die": True, "raise": True}]
        records = run_cells_recorded(cells, jobs=2)
        bad = records[1]
        assert bad.status == CELL_FAILED
        assert bad.retried and bad.replayed
        assert bad.error == "ValueError: boom; replay: ValueError: boom"

    def test_dead_worker_recovery_adds_no_service_retry(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr(parallel, "_run_cell", _die_on_histogramfs)
        service = CampaignService(root=str(tmp_path / "svc"), jobs=2)
        spec = CampaignSpec(workloads=("histogram", "histogramfs"),
                            scale=0.05)
        job = service.run_spec(spec, campaign_id="died")
        assert job.status == "completed"
        assert job.counts()["retried"] >= 1
        counters = service.metrics_snapshot()["counters"]
        assert counters.get("service.retry", 0) == 0
        assert service.resilience.quarantine.digests() == []


class TestWorkerException:
    def test_raising_cell_retried_then_recorded_failed(self,
                                                       flaky_pool):
        cells = [{"id": 0}, {"id": 1, "raise": True}]
        records = run_cells_recorded(cells, jobs=2)
        assert records[0].status == CELL_OK
        bad = records[1]
        assert bad.status == CELL_FAILED
        assert bad.retried and bad.replayed
        assert bad.error == "ValueError: boom; replay: ValueError: boom"

    def test_run_cells_raises_on_persistent_failure(self, flaky_pool):
        with pytest.raises(RuntimeError, match="failed"):
            run_cells([{"id": 0}, {"id": 1, "raise": True}], jobs=2)

    def test_serial_failure_recorded(self, flaky_pool, tmp_path):
        """At jobs=1 a raising cell runs twice: its attempt, then its
        one replay; it is recorded failed with both errors."""
        log = str(tmp_path / "log")
        records = run_cells_recorded(
            [{"id": 0, "raise": True, "log": log}], jobs=1)
        assert records[0].status == CELL_FAILED
        assert records[0].replayed
        assert records[0].error \
            == "ValueError: boom; replay: ValueError: boom"
        assert runs(log) == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_once_ends_ok_and_retried(self, flaky_pool,
                                              tmp_path, jobs):
        log = str(tmp_path / "log")
        cells = [{"id": 0},
                 {"id": 1, "raise_once": str(tmp_path / "marker"),
                  "log": log}]
        records = run_cells_recorded(cells, jobs=jobs)
        assert [r.status for r in records] == [CELL_OK, CELL_OK]
        healed = records[1]
        assert healed.retried and healed.replayed
        assert healed.error == ""
        assert healed.outcome["ran_in"] == _MAIN_PID  # the replay
        assert runs(log) == 2
        assert not records[0].retried


class TestTimeout:
    def test_slow_cell_recorded_as_timeout(self, flaky_pool):
        cells = [{"id": 0}, {"id": 1, "sleep": 5}]
        records = run_cells_recorded(cells, jobs=2, timeout=0.5)
        assert records[0].status == CELL_OK
        assert records[1].status == CELL_TIMEOUT
        assert not records[1].retried     # would blow the budget again
        assert "wall-clock" in records[1].error
