"""Campaign scheduler: one priority heap, drained synchronously.

One :class:`CampaignScheduler` owns a heap of :class:`CampaignJob`
objects, ordered by (priority, submission sequence): lower priority
values run sooner, ties run in submission order.  ``run_pending``
drains it through one worker pool per serve pass, forked at the pass's
first store miss.  Per job, the dataflow is::

    spec.cells() --digest--> quarantined? --> skipped
                                |
                                +--> store lookup --> hits (free)
                                |
                                +--> misses, streamed through the pool
                                          |
                  run_checkpointed: store.put of each ok cell as it lands
                                          |
                  ResilienceSupervisor.classify + the cell's state entry
                                          |
                  every window of cells: campaign state rewrite

The content-addressed store is the only checkpoint.  Every ok cell is
stored as soon as it is collected, so a service killed mid-campaign
loses at most the cells in flight; on restart the campaign's state
file still says ``pending``/``running``, the service resubmits it, and
the cells the store holds come back as cache hits.

Each campaign fact is recorded once.  The state file holds the spec,
the status, the counts and one entry per cell: its status and source
and, for an executed cell, whether it ran again in the parent
(``retried``) and whether that run was the replay of an attempt that
raised (``replayed``) rather than the recovery of a dead worker's
cell.  A quarantine entry names the campaign that quarantined the
cell.
Progress is counted in a :class:`~repro.obs.MetricsRegistry`
(``campaign.cells_total``, ``campaign.cache_hits``,
``campaign.executed``, ``campaign.queue_depth``, ...);
``campaign.shards`` and ``campaign.shard_cells`` mark the state
checkpoints: one per window of collected cells, and one for the rest.
"""

import heapq
import os

from repro.eval.grid import run_checkpointed
from repro.eval.parallel import CellPool
from repro.obs import MetricsRegistry
from repro.service.resilience import (CELL_QUARANTINED,
                                      SOURCE_QUARANTINE,
                                      ResilienceSupervisor)
from repro.service.store import ResultStore, write_json

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
    """One submitted campaign: spec, status and per-cell state."""

    def __init__(self, campaign_id, spec, state_path):
        self.id = campaign_id
        self.spec = spec
        self.state_path = state_path
        self.status = PENDING
        #: digest -> {"cell", "status", "source", "retried", "error"},
        #: plus "replayed" for an executed cell
        self.cells = {}

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

    def cache_hit_fraction(self, counts=None):
        """Fraction of the campaign's cells served from the store;
        ``counts`` is :meth:`counts` when the caller has it."""
        if counts is None:
            counts = self.counts()
        if not counts["total"]:
            return 0.0
        return counts["cache_hits"] / counts["total"]

    def to_dict(self, counts=None):
        """The campaign state as a ``repro-campaign/1`` document; the
        cells are counted once, unless the caller passes ``counts``."""
        if counts is None:
            counts = self.counts()
        return {"format": CAMPAIGN_FORMAT, "id": self.id,
                "status": self.status, "spec": self.spec.to_dict(),
                "counts": counts,
                "cache_hit_fraction": self.cache_hit_fraction(counts),
                "cells": self.cells}

    def write_state(self, counts=None):
        """Atomically persist the state file; returns its path."""
        return write_json(self.state_path, self.to_dict(counts))


class CampaignScheduler:
    """Streams campaign cells through one hardened worker pool.

    Owns the service root's ``campaigns/`` state directory, its
    ``store/`` and its :class:`ResilienceSupervisor`.  ``jobs`` and
    ``timeout`` forward to the pool, which each ``run_pending`` pass
    forks at its first miss and closes when the pass ends.
    """

    def __init__(self, root, jobs=None, timeout=None):
        self.state_dir = os.path.join(root, "campaigns")
        self.store = ResultStore(os.path.join(root, "store"))
        self.jobs = jobs
        self.timeout = timeout
        self.metrics = MetricsRegistry()
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
        job.write_state()
        heapq.heappush(self._heap, (job.spec.priority, self._seq, job))
        self.metrics.gauge("campaign.queue_depth").set(len(self._heap))
        return job

    def run_pending(self):
        """Run every queued job to completion, highest priority first,
        through one pool for the whole pass; returns the finished jobs
        and flushes the supervision record."""
        done = []
        with CellPool(self.jobs) as pool:
            while self._heap:
                _, _, job = heapq.heappop(self._heap)
                self.metrics.gauge("campaign.queue_depth").set(
                    len(self._heap))
                done.append(self.run_job(job, pool))
        self.resilience.save_state()
        return done

    def run_job(self, job, pool=None):
        """Execute one campaign: quarantine skips, store hits, streamed
        misses, state.

        ``pool`` is the serve pass's :class:`CellPool`; without one
        the job forks its own.  Returns the finished job: ``completed``
        when every cell is ok or quarantined, ``failed`` otherwise (a
        timed-out cell), with the per-cell classification carried in
        the state.
        """
        if pool is None:
            with CellPool(self.jobs) as pool:
                return self.run_job(job, pool)
        metrics, sup = self.metrics, self.resilience
        job.cells = {}  # re-derived from the quarantine and the store
        job.status = RUNNING
        metrics.gauge("campaign.active").add(1)

        cells = job.spec.cells()
        metrics.counter("campaign.cells_total").inc(len(cells))
        listed = set(sup.quarantine.digests())
        pending = {}
        for digest, cell in zip(job.spec.cell_digests(), cells):
            if digest in job.cells or digest in pending:
                continue  # duplicate axes derive one cell, once
            if digest in listed and sup.is_quarantined(digest):
                job.cells[digest] = {
                    "cell": cell, "status": CELL_QUARANTINED,
                    "source": SOURCE_QUARANTINE, "retried": False,
                    "error": "digest quarantined (release to re-run)"}
                metrics.counter("service.quarantine.skipped").inc()
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
        if pending:
            job.write_state()
            self._run_misses(job, pending, pool)

        counts = job.counts()
        metrics.counter("campaign.executed").inc(counts["executed"])
        done = counts["ok"] + counts.get(CELL_QUARANTINED, 0)
        job.status = COMPLETED if done == counts["total"] else FAILED
        job.write_state(counts)
        metrics.counter("campaign.jobs_" + job.status).inc()
        metrics.gauge("campaign.active").add(-1)
        return job

    def _run_misses(self, job, pending, pool):
        """Stream ``pending`` (digest -> cell) through ``pool``: each
        collected cell is classified and entered in the job's state at
        once, and the state is rewritten every window of cells."""
        metrics, sup = self.metrics, self.resilience
        misses = iter(pending.items())
        batch = []

        def checkpoint():
            metrics.counter("campaign.shards").inc()
            metrics.histogram("campaign.shard_cells").observe(len(batch))
            job.write_state()
            batch.clear()

        def collected(record):
            digest, cell = next(misses)
            status = sup.classify(job, digest, record)
            job.cells[digest] = {
                "cell": cell, "status": status,
                "source": SOURCE_EXECUTED, "retried": record.retried,
                "replayed": record.replayed, "error": record.error}
            metrics.counter("campaign.cells_" + status).inc()
            if record.retried:
                metrics.counter("campaign.cells_retried").inc()
            batch.append(digest)
            if len(batch) == pool.window:
                checkpoint()

        run_checkpointed(list(pending.values()), self.store,
                         timeout=self.timeout, pool=pool,
                         on_record=collected)
        if batch:
            checkpoint()
