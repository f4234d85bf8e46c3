"""The one failure policy: one replay, then quarantine.

Uses the grid harness' fake-runner seam (monkeypatching
``repro.eval.parallel._run_cell``) like the scheduler tests, so
replays and quarantine decisions are deterministic and instant.  The
restart test at the bottom is fork-gated: it SIGKILLs a forked service
mid-campaign and proves the quarantine and the store survive.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.eval import parallel
from repro.eval.parallel import CELL_OK
from repro.service import (CELL_QUARANTINED, COMPLETED,
                           QUARANTINE_FORMAT, SERVICE_STATE_FORMAT,
                           SOURCE_QUARANTINE, CampaignScheduler,
                           CampaignService, CampaignSpec,
                           cell_digest)

_MAIN_PID = os.getpid()


def ok_runner(cell):
    return dict(cell, ran=True)


def poison_runner(cell):
    """Fails every histogramfs cell, every attempt."""
    if cell["name"] == "histogramfs":
        raise RuntimeError("injected poison")
    return dict(cell, ran=True)


def transient_runner(failures=1):
    """Fails the first ``failures`` histogramfs attempts, then heals."""
    calls = {}

    def _run(cell):
        if cell["name"] == "histogramfs":
            calls["n"] = calls.get("n", 0) + 1
            if calls["n"] <= failures:
                raise RuntimeError("transient")
        return dict(cell, ran=True)
    return _run


def make_scheduler(tmp_path, root="svc", **kwargs):
    kwargs.setdefault("jobs", 1)
    scheduler = CampaignScheduler(str(tmp_path / root), **kwargs)
    return scheduler, scheduler.resilience


def grid_spec(**overrides):
    kwargs = dict(workloads=("histogram", "histogramfs"),
                  systems=("pthreads",), scale=0.05)
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def run_one(scheduler, job):
    scheduler.submit(job)
    scheduler.run_pending()
    return job


def poison_digest(spec=None):
    cells = (spec or grid_spec()).cells()
    return next(cell_digest(c) for c in cells
                if c["name"] == "histogramfs")


def quarantined_cells(job):
    """Names of the job's cells whose entries say ``quarantined``."""
    return [e["cell"]["name"] for e in job.cells.values()
            if e["status"] == CELL_QUARANTINED]


class TestRetryBudget:
    def test_budget_exhaustion_quarantines_in_order(self, tmp_path,
                                                    monkeypatch):
        """The budget is one replay: a poison cell runs twice, then
        is quarantined at once."""
        monkeypatch.setattr(parallel, "_run_cell", poison_runner)
        scheduler, sup = make_scheduler(tmp_path)
        job = run_one(scheduler, scheduler.make_job("b1", grid_spec()))

        # the quarantined cell is held out, not a campaign failure
        assert job.status == COMPLETED
        digest = poison_digest()
        by_name = {e["cell"]["name"]: e for e in job.cells.values()}
        assert by_name["histogram"]["status"] == CELL_OK
        assert by_name["histogramfs"]["status"] == CELL_QUARANTINED
        assert by_name["histogramfs"]["retried"]
        # a quarantined cell never reaches the cache
        assert scheduler.store.get(digest) is None

        # the cell's entry records its replay, and the quarantine
        # entry its two executions and the campaign
        assert by_name["histogramfs"]["replayed"]
        state = json.load(open(job.state_path))
        assert state["cells"][digest] == by_name["histogramfs"]

        entry = sup.quarantine.get(digest)
        assert entry["format"] == QUARANTINE_FORMAT
        assert entry["campaign"] == "b1"
        assert entry["attempts"] == 2
        assert entry["reason"] == "failed its replay"
        assert entry["cell"]["name"] == "histogramfs"
        assert entry["error"] == ("RuntimeError: injected poison; "
                                  "replay: RuntimeError: injected poison")

        counters = scheduler.metrics.snapshot()["counters"]
        assert counters["service.retry"] == 1
        assert counters["service.quarantined"] == 1

    def test_transient_failure_retries_to_success(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(parallel, "_run_cell", transient_runner(1))
        scheduler, sup = make_scheduler(tmp_path)
        job = run_one(scheduler, scheduler.make_job("t1", grid_spec()))

        assert job.status == COMPLETED
        assert job.counts()["ok"] == job.counts()["total"] == 2
        assert job.counts()["retried"] == 1
        assert sup.quarantine.digests() == []
        assert scheduler.store.get(poison_digest()) is not None
        # the recovery was the cell's one replay
        entry = job.cells[poison_digest()]
        assert entry["status"] == CELL_OK
        assert entry["retried"] and entry["replayed"]
        counters = scheduler.metrics.snapshot()["counters"]
        assert counters["service.retry"] == 1
        assert "service.quarantined" not in counters


class TestQuarantinePersistence:
    def quarantine_one(self, tmp_path, monkeypatch, campaign="q1"):
        monkeypatch.setattr(parallel, "_run_cell", poison_runner)
        scheduler, sup = make_scheduler(tmp_path)
        job = run_one(scheduler,
                      scheduler.make_job(campaign, grid_spec()))
        assert job.status == COMPLETED
        digest = poison_digest()
        assert sup.quarantine.contains(digest)
        return digest

    def test_quarantine_survives_restart_and_skips(self, tmp_path,
                                                   monkeypatch):
        digest = self.quarantine_one(tmp_path, monkeypatch)

        calls = []

        def recording(cell):
            calls.append(cell["name"])
            return dict(cell, ran=True)
        monkeypatch.setattr(parallel, "_run_cell", recording)

        # a brand-new supervisor on the same root sees the quarantine
        scheduler, sup = make_scheduler(tmp_path)
        assert sup.is_quarantined(digest)

        job = run_one(scheduler, scheduler.make_job("q2", grid_spec()))
        assert job.status == COMPLETED
        assert calls == []  # poison skipped, healthy cell cached
        entry = job.cells[digest]
        assert entry["status"] == CELL_QUARANTINED
        assert entry["source"] == SOURCE_QUARANTINE
        counters = scheduler.metrics.snapshot()["counters"]
        assert counters["service.quarantine.skipped"] == 1
        counts = job.counts()
        assert counts[CELL_QUARANTINED] == 1
        assert counts["cache_hits"] == 1 and counts["executed"] == 0

    def test_released_cell_reexecutes(self, tmp_path, monkeypatch):
        digest = self.quarantine_one(tmp_path, monkeypatch)

        scheduler, sup = make_scheduler(tmp_path)
        assert sup.quarantine.release(digest)
        assert not sup.quarantine.release(digest)  # idempotent: gone
        monkeypatch.setattr(parallel, "_run_cell", ok_runner)

        job = run_one(scheduler, scheduler.make_job("q1", grid_spec()))
        assert job.status == COMPLETED
        assert job.counts()["ok"] == 2
        assert scheduler.store.get(digest) is not None
        assert sup.quarantine.digests() == []

    def test_released_still_poison_requarantines_at_once(
            self, tmp_path, monkeypatch):
        digest = self.quarantine_one(tmp_path, monkeypatch)

        scheduler, sup = make_scheduler(tmp_path)
        sup.quarantine.release(digest)

        # still poisoned: its attempt and its one replay fail, and it
        # is back in quarantine within the same campaign run
        job = run_one(scheduler, scheduler.make_job("q1", grid_spec()))
        assert job.status == COMPLETED
        assert sup.quarantine.contains(digest)
        assert sup.quarantine.get(digest)["attempts"] == 2
        counters = scheduler.metrics.snapshot()["counters"]
        assert counters["service.retry"] == 1
        assert counters["service.quarantined"] == 1


class TestSupervisionState:
    def test_state_artifact_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "_run_cell", poison_runner)
        scheduler, sup = make_scheduler(tmp_path)
        run_one(scheduler, scheduler.make_job("s1", grid_spec()))

        state = json.load(open(sup.state_path))
        assert state == {"format": SERVICE_STATE_FORMAT,
                         "quarantined": [poison_digest()]}
        _, fresh = make_scheduler(tmp_path)
        assert fresh.snapshot() == state

    def test_byte_identical_state_for_identical_histories(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "_run_cell", poison_runner)
        paths = []
        for root in ("one", "two"):
            scheduler, sup = make_scheduler(tmp_path, root=root)
            job = run_one(scheduler,
                          scheduler.make_job("same", grid_spec()))
            paths.append((sup.state_path, job.state_path,
                          sup.quarantine.path(poison_digest())))
        for path_a, path_b in zip(*paths):
            assert open(path_a, "rb").read() == open(path_b, "rb").read()

    def test_corrupt_state_files_mean_fresh_start(self, tmp_path,
                                                  monkeypatch):
        """The quarantine directory is authoritative: a corrupt
        supervision record is rewritten from it, not read."""
        monkeypatch.setattr(parallel, "_run_cell", poison_runner)
        scheduler, sup = make_scheduler(tmp_path)
        run_one(scheduler, scheduler.make_job("c1", grid_spec()))
        open(sup.state_path, "w").write('{"format": "repro-serv')

        scheduler, fresh = make_scheduler(tmp_path)
        monkeypatch.setattr(parallel, "_run_cell", ok_runner)
        run_one(scheduler, scheduler.make_job("c2", grid_spec()))
        assert json.load(open(fresh.state_path))["quarantined"] \
            == [poison_digest()]


class TestTenantFairness:
    """Every campaign shares the one priority heap."""

    def test_priority_holds_within_a_tenant(self, tmp_path,
                                            monkeypatch):
        monkeypatch.setattr(parallel, "_run_cell", poison_runner)
        scheduler, sup = make_scheduler(tmp_path)
        late = scheduler.make_job("late", grid_spec(priority=5))
        urgent = scheduler.make_job(
            "urgent", grid_spec(workloads=("histogram",), priority=0))
        scheduler.submit(late)
        scheduler.submit(urgent)
        # the later, more urgent campaign runs first; the quarantine
        # the earlier one triggers does not reorder the heap
        done = scheduler.run_pending()
        assert [job.id for job in done] == ["urgent", "late"]
        assert urgent.status == late.status == COMPLETED
        assert quarantined_cells(urgent) == []
        assert quarantined_cells(late) == ["histogramfs"]
        assert sup.quarantine.digests() == [poison_digest()]
        assert sup.quarantine.get(poison_digest())["campaign"] == "late"
        counters = scheduler.metrics.snapshot()["counters"]
        assert counters["service.quarantined"] == 1


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="kill test needs fork-inherited monkeypatching")
class TestKillRestart:
    @staticmethod
    def _chaos_cell(cell):
        if cell["name"] == "histogramfs":
            raise RuntimeError("persistent poison")
        if cell["name"] == "lreg" and os.getpid() != _MAIN_PID:
            time.sleep(30)  # holds the forked child mid-campaign
        return dict(cell, ran=True)

    def test_sigkilled_service_resumes_with_quarantine(
            self, tmp_path, monkeypatch):
        """SIGKILL mid-campaign: the quarantine and the store survive,
        and only the cells the store lacks run again."""
        monkeypatch.setattr(parallel, "_run_cell", self._chaos_cell)
        root = str(tmp_path / "svc")
        spec = grid_spec(workloads=("histogram", "histogramfs",
                                    "lreg"))
        digest = poison_digest(spec)

        def child():
            service = CampaignService(root=root, jobs=1)
            service.run_spec(spec, campaign_id="kill-1")

        proc = multiprocessing.Process(target=child)
        proc.start()
        quarantine_path = os.path.join(root, "quarantine",
                                       f"{digest}.json")
        deadline = time.monotonic() + 30
        while not os.path.exists(quarantine_path):
            assert time.monotonic() < deadline, "no quarantine entry"
            assert proc.is_alive(), "service died before quarantine"
            time.sleep(0.02)
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=10)

        ran = []

        def recording(cell):
            ran.append(cell["name"])
            return self._chaos_cell(cell)
        monkeypatch.setattr(parallel, "_run_cell", recording)

        # restart on the same root: the campaign is non-terminal, the
        # quarantine comes back from disk, and a graceful drain
        # finishes everything that isn't held
        revived = CampaignService(root=root, jobs=1)
        sup = revived.resilience
        assert sup.is_quarantined(digest)
        assert "kill-1" in revived.incomplete_campaigns()

        done = asyncio.run(revived.serve(drain=True))
        assert "kill-1" in [j.id for j in done]
        state = revived.status("kill-1")
        assert state["status"] == COMPLETED
        by_name = {e["cell"]["name"]: e
                   for e in state["cells"].values()}
        assert by_name["histogram"]["status"] == CELL_OK
        assert by_name["lreg"]["status"] == CELL_OK
        assert by_name["histogramfs"]["status"] == CELL_QUARANTINED
        assert sup.quarantine.get(digest)["attempts"] == 2
        # the cell that finished before the kill came from the store
        assert by_name["histogram"]["source"] == "cache"
        assert ran == ["lreg"]
        assert not os.path.exists(os.path.join(root, "checkpoints"))
