"""End-to-end service: real workloads, overlap caching, byte-identity.

Satellite 1 plus the PR acceptance criterion: two overlapping
campaigns run through the real simulator (tiny scales, serial pool);
the second campaign's shared cells must all be cache hits, cached
results must be byte-identical to a direct
:func:`repro.eval.parallel.run_cells_recorded` run of the same cells,
and resubmitting an identical campaign must complete with 100% cache
hits and zero re-executed cells.
"""

import asyncio
import json
import os

import pytest

from repro.eval.grid import summarize_outcome
from repro.eval.parallel import run_cells_recorded
from repro.service import (COMPLETED, CampaignService, CampaignSpec,
                           ServiceClient, cell_digest, payload_bytes,
                           result_payload)

SCALE = 0.05  # ~0.2 s per cell: e2e stays affordable with jobs=1


def narrow_spec(**overrides):
    kwargs = dict(workloads=("histogram", "histogramfs"),
                  systems=("pthreads",), scale=SCALE, name="narrow")
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def wide_spec():
    # same two workloads, one extra system: 2 shared cells, 2 fresh
    return narrow_spec(systems=("pthreads", "tmi-protect"),
                       name="wide")


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return str(tmp_path_factory.mktemp("service"))


@pytest.fixture(scope="module")
def service(root):
    return CampaignService(root=root, jobs=1)


@pytest.fixture(scope="module")
def primed(service):
    """The first campaign: everything executes, nothing is cached."""
    return service.run_spec(narrow_spec(), campaign_id="narrow-1")


class TestOverlap:
    def test_first_campaign_executes_everything(self, primed):
        assert primed.status == COMPLETED
        counts = primed.counts()
        assert counts["executed"] == counts["total"] == 2
        assert counts["cache_hits"] == 0

    def test_shared_cells_all_cache_hits(self, service, primed):
        job = service.run_spec(wide_spec(), campaign_id="wide-1")
        assert job.status == COMPLETED
        shared = {cell_digest(c) for c in narrow_spec().cells()}
        for digest, entry in job.cells.items():
            want = "cache" if digest in shared else "executed"
            assert entry["source"] == want, entry
        assert job.counts()["cache_hits"] == len(shared) == 2

    def test_cached_results_byte_identical_to_direct_run(
            self, service, primed):
        """The cache must be invisible: byte-for-byte the direct grid.

        Every cached payload is compared against a fresh
        ``run_cells_recorded`` of the same cell — same canonical
        bytes, or the cache is serving subtly different science.
        """
        cells = narrow_spec().cells()
        records = run_cells_recorded(cells, jobs=1)
        for cell, record in zip(cells, records):
            assert record.status == "ok"
            fresh = result_payload(
                record.status, summarize_outcome(record.outcome),
                record.error)
            cached = service.store.get(cell_digest(cell))
            assert payload_bytes(cached) == payload_bytes(fresh)

    def test_identical_resubmission_is_all_hits(self, service,
                                                primed):
        job = service.run_spec(narrow_spec(), campaign_id="narrow-2")
        assert job.status == COMPLETED
        counts = job.counts()
        assert counts["cache_hits"] == counts["total"] == 2
        assert counts["executed"] == 0
        assert job.cache_hit_fraction() == 1.0


class TestClientProtocol:
    def test_submit_serve_status_roundtrip(self, service, root,
                                           primed):
        client = ServiceClient(root)
        campaign_id = client.submit(narrow_spec(), "via-client")
        assert campaign_id == "via-client"
        spooled = os.path.join(service.inbox_dir, "via-client.json")
        assert os.path.exists(spooled)
        assert client.status("via-client") is None  # not served yet

        done = asyncio.run(service.serve(once=True))
        assert "via-client" in [job.id for job in done]
        # accepted: the state holds the spec, the inbox does not
        assert not os.path.exists(spooled)
        assert client.status("via-client")["spec"] \
            == narrow_spec().to_dict()

        state = client.status("via-client")
        assert state["status"] == COMPLETED
        assert state["cache_hit_fraction"] == 1.0  # primed store
        assert "via-client" in client.campaign_ids()

    def test_malformed_spec_rejected_not_crashed(self, service,
                                                 root):
        bad = os.path.join(service.inbox_dir, "garbage.json")
        open(bad, "w").write("{not json")
        done = asyncio.run(service.serve(once=True))
        assert "garbage" not in [job.id for job in done]
        assert os.path.exists(bad + ".rejected")

    def test_results_carry_cached_payloads(self, service, primed):
        rows = service.results("narrow-1")
        assert len(rows) == 2
        for row in rows:
            assert row["status"] == "ok"
            assert row["result"]["summary"]["status"] == "ok"
            assert row["digest"] == cell_digest(row["cell"])


class TestRestartResume:
    def test_interrupted_campaign_resumes_on_new_service(self, root):
        """A campaign stuck mid-run survives a service restart."""
        first = CampaignService(root=root, jobs=1)
        job = first.scheduler.make_job("stuck-1", narrow_spec())
        job.write_state()  # pending, never drained: simulated crash
        assert "stuck-1" in first.incomplete_campaigns()

        revived = CampaignService(root=root, jobs=1)
        done = asyncio.run(revived.serve(once=True))
        assert "stuck-1" in [j.id for j in done]
        state = revived.status("stuck-1")
        assert state["status"] == COMPLETED
        # the primed store makes the revival free
        assert state["counts"]["executed"] == 0

    def test_campaign_state_survives_restart(self, root):
        fresh = CampaignService(root=root, jobs=1)
        state = fresh.status("narrow-1")
        assert state is not None and state["status"] == COMPLETED
        rows = fresh.results("narrow-1")
        assert all(row["result"] is not None for row in rows)


class TestMetrics:
    def test_metrics_snapshot_is_json_ready(self, service):
        snap = service.metrics_snapshot()
        json.dumps(snap)
        assert snap["counters"]["campaign.cache_hits"] >= 2
