"""The campaign service: spool directories, restart resume, serving.

:class:`CampaignService` glues the pieces into one long-running
process.  Everything it knows lives under one *service root* (default
``results/service/``), which is also the client protocol — submission
and status travel through the filesystem, so campaigns survive both
service and client restarts::

    <root>/inbox/<id>.json        specs waiting for a serve
    <root>/campaigns/<id>.json    per-campaign state (repro-campaign/1)
    <root>/store/                 content-addressed cell results
    <root>/quarantine/            poison cells (repro-quarantine/1)
    <root>/service-state.json     supervision record

``serve`` resumes interrupted campaigns, accepts the inbox, and
drains the scheduler; ``serve(once=True)`` processes everything
currently submitted and returns (the CI smoke mode).  The store is
the only checkpoint: a campaign whose state file says it never
finished is resubmitted, and the cells the store already holds come
back as cache hits, so a killed service picks up where it left off.
"""

import asyncio
import contextlib
import itertools
import json
import os

from repro.errors import CampaignSpecError
from repro.eval.report import results_dir
from repro.service.scheduler import (CAMPAIGN_FORMAT, COMPLETED,
                                     FAILED, CampaignScheduler)
from repro.service.spec import NAME_PATTERN, CampaignSpec, check_name
from repro.service.store import write_json

__all__ = ["CampaignService", "CAMPAIGN_FORMAT"]

#: Per-process sequence for reservation temp names — unique even when
#: two reservations overlap in one process (``id()`` can be reused).
_RESERVE_SEQ = itertools.count(1)

#: Terminal campaign statuses (query helpers/tests import these).
TERMINAL = (COMPLETED, FAILED)


class CampaignService:
    """A file-rooted campaign service instance.

    ``root`` defaults under ``results/`` (``REPRO_RESULTS_DIR`` aware);
    tests point it at a tmpdir.  ``jobs``/``timeout`` forward to the
    hardened worker pool, one per serve pass.  The one failure policy
    (one replay, then quarantine) is always on: ``resilience`` accepts
    only ``True``, because the mode a falsy value selected no longer
    exists.
    """

    def __init__(self, root=None, jobs=None, timeout=None,
                 resilience=True):
        if resilience is not True:
            raise TypeError(
                f"CampaignService(resilience={resilience!r}): the "
                f"failure policy is always on; the only accepted "
                f"value is True")
        self.root = root or os.path.join(results_dir(), "service")
        self.inbox_dir = os.path.join(self.root, "inbox")
        self.scheduler = CampaignScheduler(self.root, jobs=jobs,
                                           timeout=timeout)
        self.campaigns_dir = self.scheduler.state_dir
        self.store = self.scheduler.store
        self.resilience = self.scheduler.resilience
        #: Campaigns this process has seen finish; their state files
        #: are not re-read by :meth:`resume_incomplete`.
        self._finished = set()
        #: id stem -> the last ordinal :meth:`_free_ids` found free.
        self._ordinals = {}
        for directory in (self.inbox_dir, self.campaigns_dir):
            os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def _campaign_id_taken(self, campaign_id):
        """Whether any artifact already claims ``campaign_id``: its
        inbox spec, its state file or its ``.rejected`` spec.  An
        accepted spec leaves the inbox only once its state is written,
        so there is no gap between the first two."""
        inbox = self._inbox_path(campaign_id)
        paths = (os.path.join(self.campaigns_dir, f"{campaign_id}.json"),
                 inbox, inbox + ".rejected")
        return any(os.path.exists(path) for path in paths)

    def _inbox_path(self, campaign_id):
        """Where campaign ``campaign_id``'s spec waits to be served."""
        return os.path.join(self.inbox_dir, f"{campaign_id}.json")

    def _free_ids(self, spec):
        """Unclaimed campaign ids for ``spec``: its name/digest plus a
        run ordinal (an identical resubmission is a *new* campaign —
        that's the point, it completes from cache).

        Probing starts at the last ordinal this instance found free
        for the stem, not at 1, so the n-th resubmission of a spec
        costs two probes instead of n.
        """
        stem = f"{spec.name or 'grid'}-{spec.digest()}"
        for ordinal in itertools.count(self._ordinals.get(stem, 1)):
            campaign_id = f"{stem}-{ordinal}"
            if not self._campaign_id_taken(campaign_id):
                self._ordinals[stem] = ordinal
                yield campaign_id

    def new_campaign_id(self, spec):
        """A fresh campaign id for ``spec``.

        This is a check, not a reservation — concurrent clients racing
        on the same spec must go through :meth:`reserve_campaign_id`,
        which claims the id atomically.
        """
        return next(self._free_ids(spec))

    def reserve_campaign_id(self, spec, campaign_id=None):
        """Atomically claim an inbox file for ``spec``; returns the id.

        The spec is written to a private temp file and hard-linked to
        its inbox name — ``link(2)`` fails instead of overwriting when
        the name already exists, so two clients racing on the same
        spec digest end up with distinct ordinals and neither
        submission is silently lost.  With an explicit ``campaign_id``
        an existing submission under that id raises
        ``FileExistsError`` rather than clobbering it, and an id that
        is not a plain file name raises
        :class:`~repro.errors.CampaignSpecError` before anything is
        written.
        """
        if campaign_id is not None:
            check_name(campaign_id, "campaign id")
        os.makedirs(self.inbox_dir, exist_ok=True)
        tmp = os.path.join(
            self.inbox_dir,
            f".reserve-{os.getpid()}-{next(_RESERVE_SEQ)}.tmp")
        spec.save(tmp)
        try:
            if campaign_id is not None:
                os.link(tmp, self._inbox_path(campaign_id))
                return campaign_id
            for campaign_id in self._free_ids(spec):
                try:
                    os.link(tmp, self._inbox_path(campaign_id))
                    return campaign_id
                except FileExistsError:
                    continue  # another client won this ordinal
        finally:
            os.unlink(tmp)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, spec, campaign_id=None):
        """Validate and queue one campaign; returns its job."""
        campaign_id = campaign_id or self.new_campaign_id(spec)
        check_name(campaign_id, "campaign id")
        self._finished.discard(campaign_id)
        return self.scheduler.submit(
            self.scheduler.make_job(campaign_id, spec))

    def run_pending(self):
        """Run every queued campaign; returns the finished jobs."""
        done = self.scheduler.run_pending()
        self._finished.update(job.id for job in done)
        return done

    def run_spec(self, spec, campaign_id=None):
        """Submit + drain synchronously; returns the finished job.

        The inline convenience path (tests, ``submit --run``): no
        separate server process, same scheduler/store dataflow.
        """
        job = self.submit(spec, campaign_id=campaign_id)
        self.run_pending()
        return job

    # ------------------------------------------------------------------
    # inbox protocol
    # ------------------------------------------------------------------
    def poll_inbox(self):
        """Accept every spec file waiting in the inbox.

        A spec file ``<id>.json`` becomes campaign ``<id>``: its
        ``pending`` state, which holds the spec and claims the id, is
        written first, and only then is the spec file removed.  A
        service killed between the two leaves both; the restart
        resumes the campaign from its state and removes the spec then
        (:meth:`resume_incomplete`).  Malformed specs, and specs whose
        file name is not a campaign id, are renamed to ``.rejected``
        with the campaign left unscheduled.
        """
        accepted = []
        for fname in sorted(os.listdir(self.inbox_dir)):
            if not fname.endswith(".json"):
                continue
            path = os.path.join(self.inbox_dir, fname)
            campaign_id = fname[:-len(".json")]
            try:
                check_name(campaign_id, "campaign id")
                spec = CampaignSpec.load(path)
            except Exception:  # noqa: BLE001 - client input boundary
                os.replace(path, path + ".rejected")
                continue
            accepted.append(self.submit(spec, campaign_id=campaign_id))
            os.remove(path)
        return accepted

    def _unfinished(self):
        """``(id, state)`` of every campaign whose state file is not
        terminal, skipping those this process has seen finish."""
        for fname in sorted(os.listdir(self.campaigns_dir)):
            campaign_id = fname[:-len(".json")]
            if not fname.endswith(".json") \
                    or not NAME_PATTERN.fullmatch(campaign_id) \
                    or campaign_id in self._finished:
                continue
            state = self.status(campaign_id)
            if state is None:
                continue
            if state.get("status") in TERMINAL:
                self._finished.add(campaign_id)
            else:
                yield campaign_id, state

    def incomplete_campaigns(self):
        """Ids of campaigns whose state never reached a terminal
        status (service died mid-run)."""
        return [campaign_id for campaign_id, _ in self._unfinished()]

    def resume_incomplete(self):
        """Resubmit every interrupted campaign (restart recovery).

        Cells the store holds come back as cache hits; only the rest
        execute.  A resumed campaign's inbox spec, which a service
        killed between accepting it and removing it left behind, is
        removed, so :meth:`poll_inbox` does not submit it again.  A
        state file whose spec no longer validates (an unknown
        workload, a retired field) or whose file name is not a
        campaign id cannot be resumed: its campaign is marked
        ``failed`` with the error recorded in its state, and the
        others go on.
        """
        jobs = []
        for campaign_id, state in self._unfinished():
            try:
                spec = CampaignSpec.from_dict(state.get("spec"))
                jobs.append(self.submit(spec, campaign_id=campaign_id))
            except CampaignSpecError as exc:
                state["status"] = FAILED
                state["error"] = f"cannot resume: {exc}"
                write_json(os.path.join(self.campaigns_dir,
                                        f"{campaign_id}.json"), state)
                self._finished.add(campaign_id)
                continue
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._inbox_path(campaign_id))
        return jobs

    async def serve(self, once=False, poll=0.2, drain=False):
        """The service loop: resume, poll inbox, drain, repeat.

        ``once=True`` processes everything currently waiting and
        returns the finished jobs (CI smoke / tests).  ``drain=True``
        is graceful shutdown: interrupted campaigns finish, no new
        inbox work is accepted, and the supervision record is flushed
        before returning.  Otherwise loop forever, sleeping ``poll``
        seconds between polls.
        """
        done = []
        self.resume_incomplete()
        while True:
            if not drain:
                self.poll_inbox()
            done.extend(self.run_pending())
            if once or drain:
                return done
            await asyncio.sleep(poll)

    # ------------------------------------------------------------------
    # query
    # ------------------------------------------------------------------
    def status(self, campaign_id):
        """The campaign's state document, or None when unknown.  Raises
        :class:`~repro.errors.CampaignSpecError` for an id that is not
        a file name, as the write side does."""
        check_name(campaign_id, "campaign id")
        path = os.path.join(self.campaigns_dir, f"{campaign_id}.json")
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict) \
                or data.get("format") != CAMPAIGN_FORMAT:
            return None
        return data

    def results(self, campaign_id):
        """Per-cell results for a campaign, in spec cell order.

        Each item carries the cell kwargs, its digest, the harness
        classification from the campaign state, and the cached result
        payload (None for cells that never completed).
        """
        state = self.status(campaign_id)
        if state is None:
            return None
        spec = CampaignSpec.from_dict(state["spec"])
        out, seen = [], set()
        for digest, cell in zip(spec.cell_digests(), spec.cells()):
            if digest in seen:
                continue
            seen.add(digest)
            entry = state["cells"].get(digest, {})
            out.append({"cell": cell, "digest": digest,
                        "status": entry.get("status", "missing"),
                        "source": entry.get("source"),
                        "retried": entry.get("retried", False),
                        "error": entry.get("error", ""),
                        "result": self.store.get(digest)})
        return out

    def metrics_snapshot(self):
        """The scheduler's metrics registry snapshot (JSON-ready)."""
        return self.scheduler.metrics.snapshot()
