"""Restart resume: unrebuildable state files, warm serves.

``resume_incomplete`` runs on every ``serve``.  It must not wedge the
service on a state file whose spec no longer validates, and it must
not re-read the state files of campaigns this process has already seen
finish.  Cells run on the fake-runner seam (monkeypatched
``repro.eval.parallel._run_cell``).
"""

import asyncio
import json
import os

import pytest

from repro.eval import parallel
from repro.service import (COMPLETED, FAILED, CampaignService,
                           CampaignSpec, ServiceClient)
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
    ], ids=["unknown-workload", "retired-fields"])
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
