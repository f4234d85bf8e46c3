"""Restart resume: unrebuildable state files, the accept order, warm
serves.

``resume_incomplete`` runs on every ``serve``.  It must not wedge the
service on a state file whose spec no longer validates, and it must
not re-read the state files of campaigns this process has already seen
finish.  An inbox spec leaves the inbox only after its campaign's
state is written, so a service killed between the two loses nothing
and runs nothing twice.  A warm serve does no work the service already
did: two state writes per campaign, each counting its cells once, one
store read per distinct cell, and a constant number of id probes
however often a spec was submitted.  Cells run on the fake-runner seam
(monkeypatched ``repro.eval.parallel._run_cell``).
"""

import asyncio
import collections
import json
import os

import pytest

from repro.eval import parallel
from repro.service import (COMPLETED, FAILED, CampaignJob,
                           CampaignService, CampaignSpec, ResultStore,
                           ServiceClient, cell_digest)
from repro.service import scheduler as scheduler_mod


@pytest.fixture
def ok_pool(monkeypatch):
    monkeypatch.setattr(parallel, "_run_cell",
                        lambda cell: dict(cell, ran=True))


def tiny_spec():
    return CampaignSpec(workloads=("histogram",), scale=0.05)


def make_service(tmp_path):
    return CampaignService(root=str(tmp_path / "svc"), jobs=1)


def stuck_state(service, campaign_id, **spec_changes):
    """Leave a ``running`` state file whose spec has ``spec_changes``."""
    job = service.scheduler.make_job(campaign_id, tiny_spec())
    job.status = "running"
    state = job.to_dict()
    state["spec"].update(spec_changes)
    with open(job.state_path, "w") as fh:
        json.dump(state, fh)


def count_calls(monkeypatch, owner, name, key):
    """A Counter of ``key(*args)`` over every call of ``owner.name``."""
    calls, real = collections.Counter(), getattr(owner, name)

    def counting(*args):
        calls[key(*args)] += 1
        return real(*args)
    monkeypatch.setattr(owner, name, counting)
    return calls


def count_reads(service, monkeypatch):
    """The list every state-file read of ``service`` appends to."""
    reads, status = [], service.status

    def counting(campaign_id):
        reads.append(campaign_id)
        return status(campaign_id)
    monkeypatch.setattr(service, "status", counting)
    return reads


class TestUnrebuildableState:
    @pytest.mark.parametrize("changes, error", [
        ({"workloads": ["no-such-workload"]}, "unknown workload"),
        ({"tenant": "acme", "arrival": None}, "tenant"),
        ({"kind": "grid", "seeds": [None], "policy": "random",
          "fault_intensity": 0.5, "meta": {}}, "kind"),
        ({"configs": [{"period": "fast"}]}, "must be a number"),
    ], ids=["unknown-workload", "retired-fields", "retired-grid-fields",
            "config-word"])
    def test_marked_failed_and_others_resume(self, ok_pool, tmp_path,
                                             changes, error):
        service = make_service(tmp_path)
        stuck_state(service, "broken", **changes)
        stuck_state(service, "fine")

        done = asyncio.run(service.serve(once=True))
        assert [job.id for job in done] == ["fine"]
        assert service.status("fine")["status"] == COMPLETED
        state = service.status("broken")
        assert state["status"] == FAILED
        assert state["error"].startswith("cannot resume:")
        assert error in state["error"]

        # the failed campaign is terminal: later serves pass it by
        assert asyncio.run(service.serve(once=True)) == []
        assert make_service(tmp_path).incomplete_campaigns() == []


class TestMalformedSpool:
    def test_rejected_at_the_inbox_and_the_service_goes_on(self, ok_pool,
                                                          tmp_path):
        """A spooled spec whose config value is a word, or that carries
        a retired field, fails validation when the inbox is polled:
        it is renamed ``.rejected``, no state is written for it,
        nothing is quarantined, and the next spec is served."""
        service = make_service(tmp_path)
        spooled = tiny_spec().to_dict()
        for campaign_id, changes in (
                ("bad", {"configs": [{"period": "fast"}]}),
                ("old", {"kind": "grid"})):
            with open(service._inbox_path(campaign_id), "w") as fh:
                json.dump(dict(spooled, **changes), fh)
        tiny_spec().save(service._inbox_path("good"))

        done = asyncio.run(service.serve(once=True))
        assert [job.id for job in done] == ["good"]
        assert sorted(os.listdir(service.inbox_dir)) == \
            ["bad.json.rejected", "old.json.rejected"]
        assert os.listdir(service.campaigns_dir) == ["good.json"]
        assert service.resilience.quarantine.digests() == []

    def test_a_detection_interval_below_the_analysis_cost_is_rejected(
            self, ok_pool, tmp_path):
        """A spooled spec whose detection interval the detector cannot
        keep up with is rejected at the inbox, with no state written."""
        service = make_service(tmp_path)
        spooled = dict(tiny_spec().to_dict(),
                       configs=[{"detect_interval_cycles": 20_000,
                                 "period": 5}])
        with open(service._inbox_path("ticks"), "w") as fh:
            json.dump(spooled, fh)

        assert asyncio.run(service.serve(once=True)) == []
        assert os.listdir(service.inbox_dir) == ["ticks.json.rejected"]
        assert os.listdir(service.campaigns_dir) == []
        assert service.status("ticks") is None
        assert service.resilience.quarantine.digests() == []


class TestOlderState:
    def test_state_with_an_event_log_still_resumes(self, ok_pool,
                                                   tmp_path):
        """State files written while campaigns kept an event log carry
        an ``events`` key that nothing reads; they still resume, and
        the rewritten state drops it."""
        service = make_service(tmp_path)
        job = service.scheduler.make_job("old-1", tiny_spec())
        state = dict(job.to_dict(), status="running",
                     events={"version": "repro-trace/1", "meta": {},
                             "counts": {}, "events": []})
        with open(job.state_path, "w") as fh:
            json.dump(state, fh)

        done = asyncio.run(service.serve(once=True))
        assert [job.id for job in done] == ["old-1"]
        state = service.status("old-1")
        assert state["status"] == COMPLETED
        assert "events" not in state


class TestAcceptOrder:
    def test_kill_before_the_state_keeps_the_spec(self, ok_pool,
                                                  tmp_path,
                                                  monkeypatch):
        service = make_service(tmp_path)
        campaign_id = ServiceClient(service.root).submit(tiny_spec())
        write_state = CampaignJob.write_state

        def killed(job):
            monkeypatch.setattr(CampaignJob, "write_state", write_state)
            raise RuntimeError("killed before the state write")
        monkeypatch.setattr(CampaignJob, "write_state", killed)
        with pytest.raises(RuntimeError, match="killed"):
            service.poll_inbox()
        assert os.listdir(service.inbox_dir) == [f"{campaign_id}.json"]
        assert service.status(campaign_id) is None

        done = asyncio.run(make_service(tmp_path).serve(once=True))
        assert [job.id for job in done] == [campaign_id]
        assert done[0].status == COMPLETED
        assert os.listdir(service.inbox_dir) == []

    def test_kill_before_the_unlink_runs_the_campaign_once(
            self, tmp_path, monkeypatch):
        ran = []

        def recording(cell):
            ran.append(cell["name"])
            return dict(cell, ran=True)
        monkeypatch.setattr(parallel, "_run_cell", recording)
        service = make_service(tmp_path)
        spec = CampaignSpec(workloads=("histogram", "lreg"), scale=0.05)
        campaign_id = ServiceClient(service.root).submit(spec)
        # the killed service wrote the pending state; the spec stayed
        service.scheduler.make_job(campaign_id, spec).write_state()
        assert service.status(campaign_id)["status"] == "pending"

        done = asyncio.run(make_service(tmp_path).serve(once=True))
        assert [job.id for job in done] == [campaign_id]
        assert done[0].status == COMPLETED
        assert sorted(ran) == ["histogram", "lreg"]
        assert os.listdir(service.inbox_dir) == []


class TestWarmServe:
    def test_finished_state_files_are_not_reread(self, ok_pool,
                                                 tmp_path,
                                                 monkeypatch):
        service = make_service(tmp_path)
        client = ServiceClient(service.root)
        reads = count_reads(service, monkeypatch)
        per_serve = []
        for index in range(4):
            client.submit(tiny_spec(), f"warm-{index}")
            before = len(reads)
            done = asyncio.run(service.serve(once=True))
            assert [job.id for job in done] == [f"warm-{index}"]
            per_serve.append(len(reads) - before)
        assert per_serve == [0, 0, 0, 0]
        assert len(os.listdir(service.campaigns_dir)) == 4

        # a fresh process reads each finished state file once
        fresh = make_service(tmp_path)
        reads = count_reads(fresh, monkeypatch)
        assert fresh.incomplete_campaigns() == []
        assert fresh.incomplete_campaigns() == []
        assert sorted(reads) == [f"warm-{index}" for index in range(4)]

    def test_campaign_left_running_is_still_resumed(self, ok_pool,
                                                    tmp_path,
                                                    monkeypatch):
        service = make_service(tmp_path)
        client = ServiceClient(service.root)
        client.submit(tiny_spec(), "done-1")
        asyncio.run(service.serve(once=True))

        def crash(*args, **kwargs):
            raise RuntimeError("shard step crashed")
        monkeypatch.setattr(scheduler_mod, "run_checkpointed", crash)
        client.submit(CampaignSpec(workloads=("histogramfs",),
                                   scale=0.05), "crashed-1")
        with pytest.raises(RuntimeError, match="shard step crashed"):
            asyncio.run(service.serve(once=True))
        assert service.status("crashed-1")["status"] == "running"

        monkeypatch.undo()
        monkeypatch.setattr(parallel, "_run_cell",
                            lambda cell: dict(cell, ran=True))
        done = asyncio.run(service.serve(once=True))
        assert [job.id for job in done] == ["crashed-1"]
        assert service.status("crashed-1")["status"] == COMPLETED


class TestWarmWork:
    def test_all_hit_resubmission_writes_twice_reads_once(
            self, ok_pool, tmp_path, monkeypatch):
        service = make_service(tmp_path)
        client = ServiceClient(service.root)
        specs = [CampaignSpec(workloads=("histogram", "lreg",
                                         "histogram"),
                              systems=("pthreads", "laser"),
                              scale=0.05),
                 CampaignSpec(workloads=("reverse",), scale=0.05)]
        for spec in specs:
            client.submit(spec)
        asyncio.run(service.serve(once=True))

        writes = count_calls(monkeypatch, CampaignJob, "write_state",
                             lambda job, counts=None: job.id)
        reads = count_calls(monkeypatch, ResultStore, "get",
                            lambda store, digest: digest)
        ids = [client.submit(spec) for spec in specs]
        done = asyncio.run(service.serve(once=True))
        assert sorted(job.id for job in done) == sorted(ids)
        assert all(job.cache_hit_fraction() == 1.0 for job in done)
        # the pending write at submit and the final one, nothing between
        assert writes == {campaign_id: 2 for campaign_id in ids}
        distinct = {cell_digest(cell) for spec in specs
                    for cell in spec.cells()}
        assert len(distinct) == 5
        assert reads == {digest: 1 for digest in distinct}

    def test_all_hit_resubmission_counts_once_per_write(
            self, ok_pool, tmp_path, monkeypatch):
        """A warm campaign counts its cells once for each of its two
        state writes: the final write reuses the counts that decided
        its status."""
        service = make_service(tmp_path)
        client = ServiceClient(service.root)
        spec = CampaignSpec(workloads=("histogram", "lreg"),
                            systems=("pthreads", "laser"), scale=0.05)
        client.submit(spec)
        asyncio.run(service.serve(once=True))

        counted = count_calls(monkeypatch, CampaignJob, "counts",
                              lambda job: job.id)
        campaign_id = client.submit(spec)
        asyncio.run(service.serve(once=True))
        assert counted == {campaign_id: 2}
        assert service.status(campaign_id)["counts"]["cache_hits"] == 4

    def test_nth_resubmission_probes_two_ids(self, tmp_path,
                                             monkeypatch):
        service = make_service(tmp_path)
        for _ in range(19):
            service.reserve_campaign_id(tiny_spec())
        probes = count_calls(monkeypatch, service, "_campaign_id_taken",
                             lambda campaign_id: campaign_id)
        assert service.reserve_campaign_id(tiny_spec()).endswith("-20")
        assert sum(probes.values()) <= 2

        # a fresh instance probes from the first ordinal, and still
        # never hands out a claimed id
        assert make_service(tmp_path).reserve_campaign_id(
            tiny_spec()).endswith("-21")
