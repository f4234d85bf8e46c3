"""Service overload + submission-race regressions.

Two high-severity bugs are pinned here:

- A bounded submission queue used to block ``submit`` on a full queue
  even though submission and draining ran in one asyncio task — an
  inbox with more specs than the queue limit deadlocked the service.
  The scheduler's heap is now unbounded and drained synchronously.
- ``ServiceClient.submit`` used to check-then-act on the campaign id
  and ``os.replace`` the inbox file, so two clients racing on the
  same spec digest silently lost one submission.  Now the inbox file
  is claimed atomically via ``link(2)``.

Everything runs on the fake-runner seam (monkeypatched
``repro.eval.parallel._run_cell``) so overload scenarios stay fast.
"""

import asyncio
import os

import pytest

from repro.eval import parallel
from repro.service import (COMPLETED, CampaignService, CampaignSpec,
                           ServiceClient)


@pytest.fixture
def ok_pool(monkeypatch):
    monkeypatch.setattr(parallel, "_run_cell",
                        lambda cell: dict(cell, ran=True))


def tiny_spec(**overrides):
    kwargs = dict(workloads=("histogram",), systems=("pthreads",),
                  scale=0.05, name="tiny")
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def make_service(tmp_path, **kwargs):
    kwargs.setdefault("jobs", 1)
    return CampaignService(root=str(tmp_path / "svc"), **kwargs)


class TestOverload:
    def test_inbox_deeper_than_queue_never_hangs(self, ok_pool,
                                                 tmp_path):
        """Regression: a deep inbox deadlocked serve; one
        ``serve(once=True)`` now runs and reports every campaign."""
        service = make_service(tmp_path)
        client = ServiceClient(service.root)
        ids = [client.submit(tiny_spec(), f"flood-{index}")
               for index in range(5)]

        done = asyncio.run(
            asyncio.wait_for(service.serve(once=True), timeout=60.0))
        assert sorted(job.id for job in done) == sorted(ids)
        for campaign_id in ids:
            assert service.status(campaign_id)["status"] == COMPLETED


class TestAtomicReservation:
    def test_racing_clients_get_distinct_ids(self, ok_pool, tmp_path):
        """Same spec digest from two clients: two inbox files, no
        silent overwrite."""
        service = make_service(tmp_path)
        first = ServiceClient(service.root)
        second = ServiceClient(service.root)

        id_a = first.submit(tiny_spec())
        id_b = second.submit(tiny_spec())
        assert id_a != id_b
        for campaign_id in (id_a, id_b):
            assert os.path.exists(os.path.join(
                service.inbox_dir, f"{campaign_id}.json"))

    def test_explicit_duplicate_id_refused_not_clobbered(
            self, ok_pool, tmp_path):
        service = make_service(tmp_path)
        client = ServiceClient(service.root)
        client.submit(tiny_spec(), "dup")
        with pytest.raises(FileExistsError):
            client.submit(tiny_spec(), "dup")

    def test_reservation_skips_accepted_ids(self, ok_pool, tmp_path):
        """An id whose inbox file was renamed ``.accepted`` (and whose
        state lives in campaigns/) is never reused."""
        service = make_service(tmp_path)
        client = ServiceClient(service.root)
        first = client.submit(tiny_spec())
        asyncio.run(service.serve(once=True))
        assert os.path.exists(os.path.join(
            service.inbox_dir, f"{first}.json.accepted"))

        second = client.submit(tiny_spec())
        assert second != first

    def test_no_temp_files_left_behind(self, ok_pool, tmp_path):
        service = make_service(tmp_path)
        client = ServiceClient(service.root)
        client.submit(tiny_spec())
        leftovers = [name for name in os.listdir(service.inbox_dir)
                     if name.endswith(".tmp")]
        assert leftovers == []
