"""Scheduler: ordering, cache reuse, resume, state, metrics.

Uses the grid harness' fake-runner seam (monkeypatching
``repro.eval.parallel._run_cell``) so campaigns execute instantly and
deterministically; real-workload end-to-end coverage lives in
``test_service_e2e.py``.
"""

import asyncio
import json
import os

import pytest

from repro.eval import parallel
from repro.service import (CAMPAIGN_FORMAT, CELL_QUARANTINED,
                           COMPLETED, PENDING, CampaignScheduler,
                           CampaignService, CampaignSpec,
                           ServiceClient, cell_digest)


def ok_runner(cell):
    return dict(cell, ran=True)


def flaky_runner(cell):
    """Fails every histogramfs cell; everything else succeeds."""
    if cell["name"] == "histogramfs":
        raise RuntimeError("injected failure")
    return dict(cell, ran=True)


@pytest.fixture
def ok_pool(monkeypatch):
    monkeypatch.setattr(parallel, "_run_cell", ok_runner)


def make_scheduler(tmp_path, **kwargs):
    kwargs.setdefault("jobs", 1)
    return CampaignScheduler(str(tmp_path), **kwargs)


def grid_spec(**overrides):
    kwargs = dict(workloads=("histogram", "histogramfs"),
                  systems=("pthreads",), scale=0.05)
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def run_one(scheduler, job):
    scheduler.submit(job)
    scheduler.run_pending()
    return job


class TestRunJob:
    def test_executes_caches_and_persists(self, ok_pool, tmp_path):
        scheduler = make_scheduler(tmp_path)
        job = scheduler.make_job("c1", grid_spec())
        scheduler.submit(job)
        # the submission is the pending state, spec and all
        state = json.load(open(job.state_path))
        assert state["status"] == PENDING
        assert state["spec"] == job.spec.to_dict()
        scheduler.run_pending()

        assert job.status == COMPLETED
        counts = job.counts()
        assert counts["total"] == 2 and counts["ok"] == 2
        assert counts["executed"] == 2 and counts["cache_hits"] == 0
        for cell in job.spec.cells():
            assert scheduler.store.get(cell_digest(cell)) is not None

        state = json.load(open(job.state_path))
        assert state["format"] == CAMPAIGN_FORMAT
        assert state["status"] == COMPLETED
        assert state["counts"] == counts
        assert all(entry["source"] == "executed"
                   for entry in state["cells"].values())
        # one state checkpoint for the window of misses
        counters = scheduler.metrics.snapshot()["counters"]
        assert counters["campaign.shards"] == 1

    def test_resubmission_is_pure_cache(self, ok_pool, tmp_path):
        scheduler = make_scheduler(tmp_path)
        run_one(scheduler, scheduler.make_job("c1", grid_spec()))
        second = run_one(scheduler,
                         scheduler.make_job("c2", grid_spec()))

        assert second.status == COMPLETED
        counts = second.counts()
        assert counts["cache_hits"] == counts["total"] == 2
        assert counts["executed"] == 0
        assert second.cache_hit_fraction() == 1.0

    def test_overlap_hits_cache_partially(self, ok_pool, tmp_path):
        scheduler = make_scheduler(tmp_path)
        run_one(scheduler, scheduler.make_job("c1", grid_spec()))
        wide = grid_spec(workloads=("histogram", "histogramfs",
                                    "lreg"))
        second = run_one(scheduler, scheduler.make_job("c2", wide))
        counts = second.counts()
        assert counts["cache_hits"] == 2 and counts["executed"] == 1

    def test_duplicate_axes_derive_one_cell(self, ok_pool, tmp_path):
        scheduler = make_scheduler(tmp_path)
        spec = grid_spec(workloads=("histogram", "histogram"))
        job = run_one(scheduler, scheduler.make_job("dup", spec))
        assert len(spec.cells()) == 2           # cross product
        assert job.counts()["total"] == 1       # one digest, run once

    def test_failed_cell_fails_campaign(self, tmp_path, monkeypatch):
        """A cell that fails its replay is held out, not cached: it is
        quarantined and the campaign completes without it."""
        monkeypatch.setattr(parallel, "_run_cell", flaky_runner)
        scheduler = make_scheduler(tmp_path)
        job = run_one(scheduler, scheduler.make_job("f1", grid_spec()))

        assert job.status == COMPLETED
        counts = job.counts()
        assert counts["ok"] == 1 and counts[CELL_QUARANTINED] == 1
        assert counts["failed"] == 0
        ok_cell, bad_cell = job.spec.cells()
        assert scheduler.store.get(cell_digest(ok_cell)) is not None
        assert scheduler.store.get(cell_digest(bad_cell)) is None
        assert scheduler.resilience.quarantine.digests() \
            == [cell_digest(bad_cell)]

    def test_resume_reruns_only_unfinished(self, tmp_path,
                                           monkeypatch):
        monkeypatch.setattr(parallel, "_run_cell", flaky_runner)
        scheduler = make_scheduler(tmp_path)
        first = run_one(scheduler,
                        scheduler.make_job("r1", grid_spec()))
        assert first.counts()[CELL_QUARANTINED] == 1

        # the failure's cause is fixed and the poison released: the
        # same campaign id runs again, and the previously-ok cell
        # comes back from the store instead of the pool
        ran = []

        def recording(cell):
            ran.append(cell["name"])
            return dict(cell, ran=True)
        monkeypatch.setattr(parallel, "_run_cell", recording)
        scheduler.resilience.quarantine.release(
            cell_digest(grid_spec().cells()[1]))
        second = run_one(scheduler,
                         scheduler.make_job("r1", grid_spec()))
        assert second.status == COMPLETED
        counts = second.counts()
        assert counts["ok"] == counts["total"] == 2
        assert ran == ["histogramfs"]
        sources = {entry["cell"]["name"]: entry["source"]
                   for entry in second.cells.values()}
        assert sources == {"histogram": "cache",
                           "histogramfs": "executed"}

    def test_completed_campaign_drops_checkpoint(self, ok_pool,
                                                 tmp_path):
        """The store is the only checkpoint: a finished campaign
        leaves no grid checkpoint behind."""
        scheduler = make_scheduler(tmp_path)
        job = run_one(scheduler, scheduler.make_job("ck", grid_spec()))
        assert job.status == COMPLETED
        assert sorted(os.listdir(tmp_path)) \
            == ["campaigns", "service-state.json", "store"]


class TestRecords:
    """Each campaign fact is recorded once: in the state document, a
    cell entry, a quarantine entry or the metrics registry."""

    def test_state_has_no_event_log(self, ok_pool, tmp_path):
        scheduler = make_scheduler(tmp_path)
        job = run_one(scheduler, scheduler.make_job("e1", grid_spec()))
        state = json.load(open(job.state_path))
        assert "events" not in state
        assert sorted(state) == ["cache_hit_fraction", "cells", "counts",
                                 "format", "id", "spec", "status"]

    def test_executed_entries_carry_replayed(self, tmp_path,
                                             monkeypatch):
        """A replay is recorded on the cell it replayed; a cell whose
        attempt succeeded says so too."""
        marker = tmp_path / "raised"

        def raise_once(cell):
            if cell["name"] == "histogramfs" and not marker.exists():
                marker.write_text("x")
                raise RuntimeError("transient")
            return dict(cell, ran=True)
        monkeypatch.setattr(parallel, "_run_cell", raise_once)
        scheduler = make_scheduler(tmp_path)
        job = run_one(scheduler, scheduler.make_job("r1", grid_spec()))
        assert job.status == COMPLETED

        state = json.load(open(job.state_path))
        by_name = {e["cell"]["name"]: e for e in state["cells"].values()}
        assert by_name["histogramfs"]["status"] == "ok"
        assert by_name["histogramfs"]["retried"] is True
        assert by_name["histogramfs"]["replayed"] is True
        assert by_name["histogram"]["retried"] is False
        assert by_name["histogram"]["replayed"] is False

    def test_inbox_keeps_only_rejected_specs(self, ok_pool, tmp_path):
        service = CampaignService(root=str(tmp_path / "svc"), jobs=1)
        client = ServiceClient(service.root)
        ids = [client.submit(grid_spec(workloads=("histogram",)))
               for _ in range(3)]
        open(os.path.join(service.inbox_dir, "bad.json"), "w").write(
            "{not json")
        done = asyncio.run(service.serve(once=True))
        assert sorted(job.id for job in done) == sorted(ids)
        assert os.listdir(service.inbox_dir) == ["bad.json.rejected"]


class TestQueue:
    def test_priority_then_submission_order(self, ok_pool, tmp_path):
        scheduler = make_scheduler(tmp_path)
        for name, priority in (("late", 5), ("urgent", 0),
                               ("late2", 5)):
            spec = grid_spec(workloads=("histogram",),
                             priority=priority)
            scheduler.submit(scheduler.make_job(name, spec))
        done = scheduler.run_pending()
        assert [job.id for job in done] == ["urgent", "late", "late2"]

    def test_over_limit_submission_burst_never_hangs(self, ok_pool,
                                                     tmp_path):
        """Regression: a burst of submissions used to block on a
        bounded queue; the heap is unbounded and run_pending reports
        every job."""
        scheduler = make_scheduler(tmp_path)
        spec = grid_spec(workloads=("histogram",))
        for index in range(5):
            scheduler.submit(scheduler.make_job(f"burst-{index}", spec))
        done = scheduler.run_pending()
        assert sorted(job.id for job in done) \
            == [f"burst-{index}" for index in range(5)]
        for index in range(5):
            state = json.load(open(os.path.join(
                str(tmp_path / "campaigns"), f"burst-{index}.json")))
            assert state["status"] == COMPLETED, f"burst-{index}"

    def test_scheduler_reusable_across_event_loops(self, ok_pool,
                                                   tmp_path):
        """One service across several asyncio.run calls (how callers
        drive ``serve``): the scheduler holds no event-loop state, so
        every fresh loop finishes its campaigns."""
        service = CampaignService(root=str(tmp_path / "svc"), jobs=1)
        client = ServiceClient(service.root)
        for index in range(3):
            campaign_id = client.submit(
                grid_spec(workloads=("histogram",)), f"loop-{index}")
            done = asyncio.run(service.serve(once=True))
            assert [job.id for job in done] == [campaign_id]
            assert done[0].status == COMPLETED


class TestMetrics:
    def test_counters_track_the_campaign(self, ok_pool, tmp_path):
        scheduler = make_scheduler(tmp_path)
        run_one(scheduler, scheduler.make_job("m1", grid_spec()))
        run_one(scheduler, scheduler.make_job("m2", grid_spec()))

        snap = scheduler.metrics.snapshot()
        counters = snap["counters"]
        assert counters["campaign.cells_total"] == 4
        assert counters["campaign.cells_ok"] == 2
        assert counters["campaign.cache_hits"] == 2
        assert counters["campaign.executed"] == 2
        assert counters["campaign.jobs_completed"] == 2
        assert snap["gauges"]["campaign.queue_depth"] == 0
        assert snap["gauges"]["campaign.active"] == 0
        assert snap["histograms"]["campaign.shard_cells"]["count"] == 1
