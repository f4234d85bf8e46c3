"""TMI's repair mechanism (paper sections 3.2-3.3).

When the detector nominates pages, the repair manager asks the ptrace
monitor to stop the world; on the first episode every application
thread is converted into a process (T2P) and given a PTSB; then the
nominated pages are protected — process-private and copy-on-write — in
*every* application process.  Unprotected pages continue to hit shared
memory at native speed: repair is targeted (section 3.3).

``targeted=False`` reproduces the PTSB-everywhere ablation of section
4.3: every heap/globals/stack page is protected on the first episode.

Under an armed fault plan (:mod:`repro.faults`) repair actions can
fail: ptrace attach rounds time out, per-thread fork() fails mid
conversion, PTSB commits hit conflicts.  Each action retries with
exponential backoff in simulated cycles; an episode that exhausts its
budget aborts cleanly — targets return to a pending queue and are
re-attempted on a later detection tick — and a page that keeps
conflicting past ``page_conflict_budget`` is demoted back to shared
memory and blacklisted.  Repeated episode failures feed the
degradation ladder (:mod:`repro.core.ladder`).
"""

from repro.core.ptsb import PageTwinningStoreBuffer
from repro.oskit.ptrace import PtraceMonitor


class RepairManager:
    """Orchestrates T2P conversion and targeted page protection."""

    def __init__(self, engine, config, stats, faults=None, ladder=None):
        self.engine = engine
        self.config = config
        self.stats = stats
        self.faults = faults           # armed FaultInjector or None
        self.ladder = ladder           # DegradationLadder or None
        self.monitor = PtraceMonitor(engine)
        self.converted = False
        self.protected_pages = {}      # page va -> page size
        self.protected_lines = set()   # line vas already handled
        #: Targets awaiting a (retried) episode.
        self.pending = []
        #: Pages demoted after exhausting their conflict budget.
        self.blacklisted_pages = set()
        #: Page vas awaiting a stop-the-world demotion.
        self.pending_demotions = []
        #: Thread ids still to convert after a partial (fork-failed)
        #: conversion batch; None once conversion is complete or before
        #: it starts.
        self.unconverted = None
        self._conflict_counts = {}     # page va -> commit conflicts
        self._episode_scheduled = False
        self._demotion_scheduled = False

    # ------------------------------------------------------------------
    @property
    def active(self):
        return self.converted

    def request_repair(self, engine, targets, interval_index):
        """Queue ``targets`` and schedule a repair episode for them."""
        queued = {t.line_va for t in self.pending}
        new = [t for t in targets
               if t.line_va not in self.protected_lines
               and t.line_va not in queued
               and t.page_va not in self.blacklisted_pages]
        if not new and not self.pending:
            return
        if not self.stats.repair_trigger_interval:
            self.stats.repair_trigger_interval = interval_index
        self.pending.extend(new)
        self._schedule_episode(engine)

    def resume(self, engine):
        """Re-attempt pending work (failed episodes) on a later tick."""
        if self.pending or (self.unconverted and not self.converted):
            self._schedule_episode(engine)

    # ------------------------------------------------------------------
    # the repair episode (stop-the-world action)
    # ------------------------------------------------------------------
    def _schedule_episode(self, engine):
        if self._episode_scheduled:
            return
        if self.ladder is not None and not self.ladder.allows_repair():
            return
        self._episode_scheduled = True
        self.monitor.stop_all_and(self._episode)

    def _episode(self, eng, stop_time):
        self._episode_scheduled = False
        targets, self.pending = self.pending, []
        if not self._attach_with_retries(eng, stop_time):
            self.pending = targets
            self._note_failure(stop_time, "attach-timeout")
            return
        if not self.converted:
            record = self.monitor.convert_all_threads(
                eng, stop_time, faults=self.faults,
                fork_retries=self.config.fault_retry_limit,
                only_tids=self.unconverted)
            self.stats.conversions.append(record)
            if not self.stats.repair_trigger_cycle:
                self.stats.repair_trigger_cycle = stop_time
            observer = eng._observer
            if observer is not None:
                observer.on_t2p({
                    "cycle": stop_time,
                    "threads": record.thread_count
                    - len(record.failed_tids),
                    "cycles": record.total_cycles,
                    "mode": "initial"})
            if record.failed_tids:
                # partial conversion: protecting pages now would lose
                # the unconverted threads' writes (no PTSB to commit
                # them).  Convert the stragglers on a later episode.
                self.unconverted = set(record.failed_tids)
                self.pending = targets
                self._note_failure(stop_time, "fork-fail")
                return
            self.unconverted = None
            for process in self._app_processes(eng):
                self._install_ptsb(process)
            self.converted = True
        if self.config.targeted:
            for target in targets:
                self._protect_target(eng, target)
        else:
            self._protect_all_memory(eng)
        self.stats.repair_episodes += 1
        if self.ladder is not None:
            self.ladder.note_episode_success()

    def _attach_with_retries(self, eng, stop_time):
        """PM's attach round; injected timeouts retry with backoff.

        Every retry charges a fresh attach plus an exponentially
        growing backoff (in simulated cycles) to each stopped thread.
        Returns False when the retry budget is exhausted.
        """
        if self.faults is None:
            return True
        for attempt in range(self.config.fault_retry_limit + 1):
            if not self.faults.fire("ptrace.attach_timeout",
                                    cycle=stop_time, attempt=attempt):
                return True
            penalty = (eng.costs.ptrace_attach
                       + self.config.fault_backoff_cycles
                       * (2 ** attempt))
            for thread in eng.threads.values():
                if thread.state != "done":
                    thread.pending_penalty += penalty
        return False

    def _note_failure(self, stop_time, reason):
        self.stats.repair_episode_failures += 1
        if self.ladder is not None:
            interval = self.stats.intervals
            self.ladder.note_episode_failure(stop_time, interval,
                                             reason)

    def abandon_pending(self, detector):
        """Drop queued targets (ladder degraded below ``protect``).

        The targets' lines are un-nominated in the detector so that a
        cooldown re-arm can re-nominate them if they are still hot.
        """
        for target in self.pending:
            detector.untarget(target.line_va)
        self.pending = []

    # ------------------------------------------------------------------
    # conflict accounting and page demotion
    # ------------------------------------------------------------------
    def note_conflict(self, page_va):
        """One injected commit conflict on ``page_va``; demote the page
        once it exhausts its budget."""
        self.stats.commit_conflicts += 1
        count = self._conflict_counts.get(page_va, 0) + 1
        self._conflict_counts[page_va] = count
        if count > self.config.page_conflict_budget \
                and page_va not in self.blacklisted_pages:
            self.blacklisted_pages.add(page_va)
            self.pending_demotions.append(page_va)

    def schedule_demotions(self, engine):
        """Stop the world and demote every blacklisted page: commit all
        PTSBs (the private frames' changes must land first), return the
        pages to shared mode everywhere, and never re-protect them."""
        if self._demotion_scheduled or not self.pending_demotions:
            return
        self._demotion_scheduled = True

        def action(eng, stop_time):
            self._demotion_scheduled = False
            pages, self.pending_demotions = self.pending_demotions, []
            for thread in eng.threads.values():
                if thread.state == "done":
                    continue
                ptsb = thread.process.ptsb
                if ptsb is not None:
                    thread.pending_penalty += ptsb.commit(
                        thread.core, "demote")
            for process in self._app_processes(eng):
                for page_va in pages:
                    if page_va in self.protected_pages:
                        process.aspace.unprotect_page(page_va)
            observer = eng._observer
            for page_va in pages:
                if self.protected_pages.pop(page_va, None) is None:
                    continue
                self.stats.pages_blacklisted += 1
                if observer is not None:
                    observer.on_fault({
                        "point": "repair.page_demoted", "seq": None,
                        "cycle": stop_time, "page_va": page_va})
            self.stats.protected_pages = len(self.protected_pages)

        self.monitor.stop_all_and(action)

    # ------------------------------------------------------------------
    def adopt_thread(self, engine, thread):
        """A thread created after repair began: convert it immediately
        so its address space carries the same protections (the forked
        page table inherits them)."""
        if not self.converted:
            if self.unconverted is not None:
                # mid partial conversion: the new thread joins the set
                # the next episode converts
                self.unconverted.add(thread.tid)
            return
        parent_ptsb = thread.process.ptsb
        if parent_ptsb is not None:
            thread.pending_penalty += parent_ptsb.commit(
                thread.core, "thread_create")
        process = engine.convert_thread_to_process(thread)
        self._install_ptsb(process)
        cost = engine.costs.fork + engine.costs.trampoline
        thread.pending_penalty += cost
        observer = engine._observer
        if observer is not None:
            observer.on_t2p({"cycle": engine.machine.now, "threads": 1,
                             "cycles": cost, "mode": "adopt"})

    # ------------------------------------------------------------------
    def _app_processes(self, engine):
        seen = set()
        for thread in engine.threads.values():
            if thread.process.pid not in seen:
                seen.add(thread.process.pid)
                yield thread.process

    def _install_ptsb(self, process):
        if process.ptsb is None:
            PageTwinningStoreBuffer(
                process, self.engine.machine, self.engine.costs,
                self.config.huge_commit_optimization,
                on_commit=self._on_commit, faults=self.faults,
                on_conflict=self.note_conflict,
                routed=self.config.code_centric)

    def _on_commit(self, info):
        self.stats.note_commit(info)
        observer = self.engine._observer
        if observer is not None:
            observer.on_ptsb_commit(info)

    def _protect_target(self, engine, target):
        from repro.sim.costs import PAGE_4K

        self.protected_lines.add(target.line_va)
        page_va, page_size = target.page_va, target.page_size
        if page_size > PAGE_4K and self.config.repair_page_split:
            # the application region uses huge pages: remap the hot
            # 2 MB page as 4 KB pages so diff/commit stay cheap, then
            # protect only the 4 KB page holding the hot line
            processes = list(self._app_processes(engine))
            for process in processes:
                small = process.aspace.split_mapping_page(target.page_va)
                page_va, page_size = process.aspace.page_base(
                    target.line_va)
        if page_va in self.protected_pages \
                or page_va in self.blacklisted_pages:
            return
        for process in self._app_processes(engine):
            process.aspace.protect_page(page_va)
        self.protected_pages[page_va] = page_size
        self.stats.protected_pages = len(self.protected_pages)

    def _protect_all_memory(self, engine):
        """PTSB-everywhere ablation: protect heap, globals, and stacks."""
        from repro.sim.addrspace import PRIVATE

        for process in self._app_processes(engine):
            for mapping in process.aspace.mappings():
                kind = mapping.name.split(":")[0]
                if kind not in ("heap", "globals", "stack"):
                    continue
                mapping.mode = PRIVATE
                for state in mapping.pages.values():
                    state.mode = PRIVATE
            process.aspace.invalidate_translations()
        self.stats.protected_pages = -1        # sentinel: everything
