"""Campaign scheduler: one priority heap, drained synchronously.

One :class:`CampaignScheduler` owns a heap of :class:`CampaignJob`
objects, ordered by (priority, submission sequence): lower priority
values run sooner, ties run in submission order.  ``run_pending``
drains it through the hardened grid machinery.  Per job, the dataflow
is::

    spec.cells() --digest--> quarantined? --> skipped
                                |
                                +--> store lookup --> hits (free)
                                |
                                +--> misses, sharded
                                          |
                  run_checkpointed: pool + store.put of every ok cell
                                          |
                  ResilienceSupervisor.classify + campaign state rewrite

The content-addressed store is the only checkpoint.  Every ok cell is
stored in the shard step that ran it, so a service killed mid-campaign
loses at most the shard in flight; on restart the campaign's state
file still says ``pending``/``running``, the service resubmits it, and
the cells the store holds come back as cache hits.

Progress streams through the observability layer: counters and gauges
in a :class:`~repro.obs.MetricsRegistry` (``campaign.cells_total``,
``campaign.cache_hits``, ``campaign.executed``,
``campaign.queue_depth``, ...) plus events in an
:class:`~repro.obs.EventLog` that lands in each campaign's state file.
"""

import heapq
import os

from repro.eval.grid import run_checkpointed
from repro.eval.parallel import CELL_TIMEOUT, job_count
from repro.obs import EventLog, MetricsRegistry
from repro.service.resilience import (CELL_QUARANTINED,
                                      SOURCE_QUARANTINE,
                                      ResilienceSupervisor)
from repro.service.store import ResultStore, cell_digest, write_json

#: Versioned campaign-state format tag.
CAMPAIGN_FORMAT = "repro-campaign/1"

#: Campaign lifecycle statuses.
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"

#: Where a cell's result came from.
SOURCE_CACHE = "cache"
SOURCE_EXECUTED = "executed"


class CampaignJob:
    """One submitted campaign: spec, per-cell state, event log."""

    def __init__(self, campaign_id, spec, state_path):
        self.id = campaign_id
        self.spec = spec
        self.state_path = state_path
        self.status = PENDING
        #: digest -> {"cell", "status", "source", "retried", "error"}
        self.cells = {}
        self.log = EventLog(meta={"campaign": campaign_id,
                                  "kind": spec.kind})

    # ------------------------------------------------------------------
    # derived state
    # ------------------------------------------------------------------
    def counts(self):
        """Cell totals by harness status, source, and retry flag."""
        counts = {"total": len(self.cells), "cache_hits": 0,
                  "executed": 0, "retried": 0,
                  "ok": 0, "failed": 0, "timeout": 0}
        for entry in self.cells.values():
            status = entry["status"]
            counts[status] = counts.get(status, 0) + 1
            source = entry["source"]
            if source == SOURCE_CACHE:
                counts["cache_hits"] += 1
            elif source == SOURCE_EXECUTED:
                counts["executed"] += 1
            if entry.get("retried"):
                counts["retried"] += 1
        return counts

    def cache_hit_fraction(self):
        """Fraction of the campaign's cells served from the store."""
        if not self.cells:
            return 0.0
        counts = self.counts()
        return counts["cache_hits"] / counts["total"]

    def to_dict(self):
        """The campaign state as a ``repro-campaign/1`` document."""
        return {"format": CAMPAIGN_FORMAT, "id": self.id,
                "status": self.status, "spec": self.spec.to_dict(),
                "counts": self.counts(),
                "cache_hit_fraction": self.cache_hit_fraction(),
                "cells": self.cells,
                "events": self.log.trace_data()}

    def write_state(self):
        """Atomically persist the state file; returns its path."""
        return write_json(self.state_path, self.to_dict())


class CampaignScheduler:
    """Shards campaign cells across the hardened worker pools.

    Owns the service root's ``campaigns/`` state directory, its
    ``store/`` and its :class:`ResilienceSupervisor`.  ``jobs`` and
    ``timeout`` forward to the pool; each shard is two batches' worth
    of workers.
    """

    def __init__(self, root, jobs=None, timeout=None, metrics=None):
        self.state_dir = os.path.join(root, "campaigns")
        self.store = ResultStore(os.path.join(root, "store"))
        self.jobs = jobs
        self.timeout = timeout
        self.shard_cells = job_count(jobs) * 2
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry()
        self.resilience = ResilienceSupervisor(root, self.metrics)
        self._heap = []
        self._seq = 0

    def make_job(self, campaign_id, spec):
        """Build the :class:`CampaignJob` for ``spec``."""
        path = os.path.join(self.state_dir, f"{campaign_id}.json")
        return CampaignJob(campaign_id, spec, path)

    def submit(self, job):
        """Queue a job and persist its ``pending`` state."""
        self._seq += 1
        job.status = PENDING
        job.log.emit("campaign_submitted", cells=len(job.spec.cells()),
                     priority=job.spec.priority)
        job.write_state()
        heapq.heappush(self._heap, (job.spec.priority, self._seq, job))
        self.metrics.gauge("campaign.queue_depth").set(len(self._heap))
        return job

    def run_pending(self):
        """Run every queued job to completion, highest priority first;
        returns the finished jobs and flushes the supervision record."""
        done = []
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            self.metrics.gauge("campaign.queue_depth").set(
                len(self._heap))
            done.append(self.run_job(job))
        self.resilience.save_state()
        return done

    def run_job(self, job):
        """Execute one campaign: quarantine skips, store hits, sharded
        misses, state.

        Returns the finished job: ``completed`` when every cell is ok
        or quarantined, ``failed`` otherwise (a timed-out cell), with
        the per-cell classification carried in the state.
        """
        metrics, sup = self.metrics, self.resilience
        job.cells = {}  # re-derived from the quarantine and the store
        job.status = RUNNING
        job.log.emit("campaign_started")
        metrics.gauge("campaign.active").add(1)

        cells = job.spec.cells()
        metrics.counter("campaign.cells_total").inc(len(cells))
        pending, hits, held = {}, 0, 0
        for cell in cells:
            digest = cell_digest(cell)
            if digest in job.cells or digest in pending:
                continue  # duplicate axes derive one cell, once
            if sup.is_quarantined(digest):
                job.cells[digest] = {
                    "cell": cell, "status": CELL_QUARANTINED,
                    "source": SOURCE_QUARANTINE, "retried": False,
                    "error": "digest quarantined (release to re-run)"}
                metrics.counter("service.quarantine.skipped").inc()
                held += 1
                continue
            payload = self.store.get(digest)
            if payload is None:
                pending[digest] = cell
                continue
            job.cells[digest] = {
                "cell": cell, "status": payload["status"],
                "source": SOURCE_CACHE, "retried": False,
                "error": payload.get("error", "")}
            metrics.counter("campaign.cache_hits").inc()
            hits += 1
        if hits:
            job.log.emit("cache_hits", hits=hits)
        if held:
            job.log.emit("quarantine_skipped", cells=held)
        job.write_state()

        misses = list(pending.items())
        for base in range(0, len(misses), self.shard_cells):
            shard = misses[base:base + self.shard_cells]
            records = run_checkpointed(
                [cell for _, cell in shard], self.store,
                jobs=self.jobs, timeout=self.timeout)
            for (digest, cell), record in zip(shard, records):
                status = sup.classify(job, digest, record)
                job.cells[digest] = {
                    "cell": cell, "status": status,
                    "source": SOURCE_EXECUTED,
                    "retried": record.retried, "error": record.error}
                metrics.counter("campaign.cells_" + status).inc()
                if record.retried:
                    metrics.counter("campaign.cells_retried").inc()
            metrics.counter("campaign.shards").inc()
            metrics.histogram("campaign.shard_cells").observe(
                len(shard))
            job.log.emit("shard_done", shard=base // self.shard_cells,
                         cells=len(shard))
            job.write_state()

        counts = job.counts()
        metrics.counter("campaign.executed").inc(counts["executed"])
        done = counts["ok"] + counts.get(CELL_QUARANTINED, 0)
        job.status = COMPLETED if done == counts["total"] else FAILED
        job.log.emit("campaign_done", status=job.status,
                     cache_hits=counts["cache_hits"],
                     executed=counts["executed"],
                     failed=counts["failed"],
                     timeout=counts[CELL_TIMEOUT])
        job.write_state()
        metrics.counter("campaign.jobs_" + job.status).inc()
        metrics.gauge("campaign.active").add(-1)
        return job
