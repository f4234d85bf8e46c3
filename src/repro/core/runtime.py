"""The TMI runtime system (paper section 3).

Three stages match the evaluation's configurations:

- ``alloc`` (*tmi-alloc*): only the allocator change — all application
  memory (globals, heap, stacks) lives in a shared, file-backed region
  so repair remains possible later;
- ``detect`` (*tmi-detect*): adds process-shared synchronization
  redirection, per-thread PEBS HITM sampling, and the detection thread;
- ``protect`` (*tmi-protect*, full TMI): adds online repair — thread-to-
  process conversion and targeted PTSB page protection — gated on the
  detector, i.e. compatible-by-default.
"""

from repro.alloc import LocklessAllocator, RegionBump
from repro.core.config import TmiConfig, check_detect_interval
from repro.core.consistency import CodeCentricPolicy
from repro.core.detector import FalseSharingDetector
from repro.core.ladder import DegradationLadder
from repro.core.repair import RepairManager
from repro.core.stats import TmiStats
from repro.errors import ShmExhaustedError
from repro.engine import layout
from repro.engine.hooks import RuntimeHooks
from repro.isa.disasm import Disassembler
from repro.oskit.perf import PerfSession
from repro.oskit.procmaps import AddressMap
from repro.oskit.shm import SharedMemoryNamespace
from repro.sim.addrspace import AddressSpace, Translation

STAGE_ALLOC = "alloc"
STAGE_DETECT = "detect"
STAGE_PROTECT = "protect"
_STAGES = (STAGE_ALLOC, STAGE_DETECT, STAGE_PROTECT)

#: Maximum application threads whose stacks the shared region reserves.
MAX_THREADS = 64
#: Extra cycles a fault-injected ``ptsb.delayed_flush`` stalls a
#: consistency flush.
DELAYED_FLUSH_CYCLES = 20_000


class TmiRuntime(RuntimeHooks):
    """TMI at one of its three deployment stages."""

    def __init__(self, stage=STAGE_PROTECT, config=None):
        if stage not in _STAGES:
            raise ValueError(f"unknown TMI stage {stage!r}")
        self.stage = stage
        self.config = config or TmiConfig()
        self.name = f"tmi-{stage}"
        self.stats = TmiStats()
        self.policy = CodeCentricPolicy(
            enabled=self.config.code_centric,
            flush_relaxed=self.config.flush_relaxed)
        self.perf = None
        self.detector = None
        self.repair = None
        self.ladder = None
        self._engine = None
        if stage != STAGE_ALLOC:
            self.tick_cycles = self.config.detect_interval_cycles

    # ------------------------------------------------------------------
    # setup: the shared-memory layout of Figure 6
    # ------------------------------------------------------------------
    def setup(self, engine):
        machine = engine.machine
        costs = engine.costs
        program = engine.program
        page_size = self.config.app_page_size
        if self.stage != STAGE_ALLOC:
            check_detect_interval(self.tick_cycles, costs)
        self._engine = engine

        self.shm = SharedMemoryNamespace(machine.physmem,
                                         faults=self.faults)
        heap_bytes = program.heap_bytes
        stacks_bytes = MAX_THREADS * layout.STACK_SIZE
        app_bytes = layout.GLOBALS_SIZE + heap_bytes + stacks_bytes
        self.shm_degraded = False
        self.app_backing = self._shm_open_with_retry(
            machine, "tmi-app", app_bytes)
        self.internal_backing = self._shm_open_with_retry(
            machine, "tmi-internal", layout.INTERNAL_SIZE)

        aspace = AddressSpace(machine.physmem, costs, name="app")
        aspace.mmap(layout.GLOBALS_BASE, layout.GLOBALS_SIZE,
                    self.app_backing, backing_offset=0,
                    page_size=page_size, name="globals")
        aspace.mmap(layout.HEAP_BASE, heap_bytes, self.app_backing,
                    backing_offset=layout.GLOBALS_SIZE,
                    page_size=page_size, name="heap")
        aspace.mmap(layout.INTERNAL_BASE, layout.INTERNAL_SIZE,
                    self.internal_backing, name="tmi-internal")
        from repro.sim.addrspace import Backing
        libc_backing = Backing(machine.physmem, layout.LIBC_SIZE, "libc")
        aspace.mmap(layout.LIBC_BASE, layout.LIBC_SIZE, libc_backing,
                    name="libc")
        engine.root_aspace = aspace

        heap_region = RegionBump(layout.HEAP_BASE, heap_bytes, "heap")
        engine.allocator = LocklessAllocator(
            heap_region, costs, name="tmi-shared", line_align_large=True)
        self._internal_bump = RegionBump(
            layout.INTERNAL_BASE, layout.INTERNAL_SIZE, "tmi-internal")
        self._stack_offset_base = layout.GLOBALS_SIZE + heap_bytes
        self._stacks_mapped = set()

        if self.stage != STAGE_ALLOC:
            self.perf = PerfSession(
                costs, period=self.config.period, faults=self.faults)
            machine.add_hitm_listener(self.perf.on_hitm)
            self.detector = FalseSharingDetector(
                Disassembler(program.binary),
                AddressMap.from_aspace(aspace),
                aspace, self.config)
            self.ladder = DegradationLadder(
                self.config,
                start=(STAGE_PROTECT if self.stage == STAGE_PROTECT
                       else STAGE_DETECT),
                on_transition=self._on_ladder_transition)
        if self.stage == STAGE_PROTECT:
            self.repair = RepairManager(engine, self.config, self.stats,
                                        faults=self.faults,
                                        ladder=self.ladder)
            if self.shm_degraded:
                # without the shared file-backed region a forked
                # process could never publish its writes: repair is
                # permanently off; detection still runs
                self.ladder.force_level(STAGE_DETECT, 0, 0,
                                        "shm-exhausted",
                                        permanent=True)

    def _shm_open_with_retry(self, machine, name, nbytes):
        """``shm_open`` with retries; persistent exhaustion falls back
        to a private (non-file-backed) region and flags degradation."""
        from repro.sim.addrspace import Backing
        for _attempt in range(self.config.fault_retry_limit + 1):
            try:
                return self.shm.shm_open(name, nbytes)
            except ShmExhaustedError:
                continue
        self.shm_degraded = True
        return Backing(machine.physmem, nbytes, name=name)

    # ------------------------------------------------------------------
    # threads
    # ------------------------------------------------------------------
    def on_thread_created(self, engine, thread):
        tid = thread.tid
        if tid not in self._stacks_mapped and tid < MAX_THREADS:
            self._stacks_mapped.add(tid)
            engine.root_aspace.mmap(
                layout.stack_base(tid), layout.STACK_SIZE,
                self.app_backing,
                backing_offset=self._stack_offset_base
                + tid * layout.STACK_SIZE,
                name=f"stack:{tid}")
        if self.perf is not None:
            self.perf.attach_thread(tid)
        if self.repair is not None:
            self.repair.adopt_thread(engine, thread)

    def on_thread_exit(self, engine, thread):
        ptsb = thread.process.ptsb
        if ptsb is not None:
            cost = ptsb.commit(thread.core, "exit")
            self.stats.commit_cycles += cost
            self.stats.twin_bytes_peak = max(self.stats.twin_bytes_peak,
                                             ptsb.twin_bytes_peak)
            engine.machine.advance(thread.core, cost)

    # ------------------------------------------------------------------
    # memory: code-centric routing
    # ------------------------------------------------------------------
    def translate(self, engine, thread, op, va, width, is_write):
        # the engine calls this only for the accesses a routed process
        # may send around its PTSB (SimProcess.routed, set at install
        # from config.code_centric); the policy makes the call
        aspace = thread.process.aspace
        if thread.process.ptsb is not None and \
                self.policy.access_bypasses_ptsb(thread, op):
            return Translation(pa=aspace.shared_pa(va), cost=0)
        return aspace.translate(va, width, is_write)

    # ------------------------------------------------------------------
    # synchronization interposition
    # ------------------------------------------------------------------
    def on_sync_object_init(self, engine, thread, obj):
        """pthread_*_init wrapper: allocate a cache-line-sized shadow in
        process-shared memory and point the application object at it."""
        if self.stage == STAGE_ALLOC:
            return 0
        shadow = self._internal_bump.take(64, align=64)
        obj.shadow_addr = shadow
        aspace = thread.process.aspace
        cost, _ = engine.machine.mem_access(
            thread.core, thread.tid, 0, obj.addr,
            aspace.shared_pa(obj.addr), 8, True, shadow)
        # the pointer line is written once at init and read thereafter;
        # by the time workers run it has left the initializer's cache
        engine.machine.directory.flush_range(
            aspace.shared_pa(obj.addr), 8)
        return cost + engine.costs.alloc_fast

    def sync_cost_extra(self, engine, thread, obj):
        if self.stage == STAGE_ALLOC or not obj.shadow_addr:
            return 0
        # pointer chase through the application object
        aspace = thread.process.aspace
        cost, _ = engine.machine.mem_access(
            thread.core, thread.tid, 0, obj.addr,
            aspace.shared_pa(obj.addr), 8, False)
        return cost + engine.costs.pshared_indirect

    def on_sync_acquired(self, engine, thread, obj, kind):
        return self._commit(thread, kind)

    def on_sync_release(self, engine, thread, obj, kind):
        return self._commit(thread, kind)

    def _commit(self, thread, reason):
        ptsb = thread.process.ptsb
        if ptsb is None:
            return 0
        cost = ptsb.commit(thread.core, reason)
        if cost and self.faults is not None and self.faults.fire(
                "ptsb.delayed_flush", tid=thread.tid, reason=reason):
            # the commit path stalled (contended directory, write-back
            # pressure): the flush completes late but completes
            cost += DELAYED_FLUSH_CYCLES
        self.stats.commit_cycles += cost
        self.stats.twin_bytes_peak = max(self.stats.twin_bytes_peak,
                                         ptsb.twin_bytes_peak)
        return cost

    # ------------------------------------------------------------------
    # code-centric consistency callbacks
    # ------------------------------------------------------------------
    def on_region_begin(self, engine, thread, kind, ordering):
        decision = self.policy.on_region_begin(thread, kind, ordering)
        cost = 0
        if decision.flush_ptsb:
            cost += self._commit(thread, kind)
            self.stats.ptsb_flushes += 1
            observer = engine._observer
            if observer is not None:
                observer.on_ptsb_flush({"tid": thread.tid,
                                        "region": kind})
        return cost

    def on_region_end(self, engine, thread, kind):
        self.policy.on_region_end(thread, kind)
        return 0

    # ------------------------------------------------------------------
    # the detection thread's periodic analysis
    # ------------------------------------------------------------------
    def on_tick(self, engine, now):
        if self.detector is None:
            return
        self.stats.intervals += 1
        observer = engine._observer
        if self.ladder is not None \
                and not self.ladder.allows_detection():
            # degraded to the alloc level: the sampling pipeline is
            # untrusted, so drain and discard without analysis; the
            # interval still counts and the cooldown clock still runs
            self.perf.drain()
            self._tick_fault_work(engine, observer, now)
            return
        records = self.perf.drain()
        self.stats.records_seen += len(records)
        if observer is not None and records:
            observer.on_pebs_records(records)
        self.detector.address_map = AddressMap.from_aspace(
            engine.root_aspace)
        self.detector.add_records(records)
        report = self.detector.analyze(self.stats.intervals,
                                       self.config.period)
        engine.machine.advance(engine.service_core,
                               self.detector.analysis_cost(engine.costs))
        if observer is not None:
            observer.on_detect_interval(report, now)
        if (self.repair is not None and self.config.enable_repair
                and report.targets):
            self.repair.request_repair(engine, report.targets,
                                       self.stats.intervals)
        self._tick_fault_work(engine, observer, now)

    def _tick_fault_work(self, engine, observer, now):
        """Per-tick fault bookkeeping: demotions, retries, budgets.

        Every branch is a no-op in a fault-free run (no pending work,
        no drops, ladder at its ceiling), so the cycle-exactness
        goldens are unaffected.
        """
        if self.repair is not None:
            self.repair.schedule_demotions(engine)
            self.repair.resume(engine)
        if self.faults is not None:
            self.stats.records_dropped = self.perf.records_dropped
            if self.ladder is not None:
                self.ladder.note_perf_drops(self.perf.records_dropped,
                                            now, self.stats.intervals)
            if observer is not None:
                for event in self.faults.pending_events():
                    observer.on_fault(event)
        if self.ladder is not None:
            self.ladder.tick(now, self.stats.intervals)

    def _on_ladder_transition(self, info):
        """Ladder callback: record, surface, and abandon stale work."""
        self.stats.degradations.append(dict(info))
        if (info["from"] == STAGE_PROTECT
                and info["to"] != STAGE_PROTECT
                and self.repair is not None
                and self.detector is not None):
            self.repair.abandon_pending(self.detector)
        engine = self._engine
        observer = engine._observer if engine is not None else None
        if observer is not None:
            observer.on_degradation(dict(info))

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def memory_report(self, engine):
        if self.stage == STAGE_ALLOC:
            return {}
        report = {
            "perf_buffers": self.perf.buffer_memory_bytes(),
            "detector": self.detector.memory_bytes(),
            "pshared_sync": len(engine.sync_objects) * 128,
        }
        if self.repair is not None and self.repair.converted:
            report["ptsb"] = self.stats.twin_bytes_peak * 2
        return report

    def fill_metrics(self, engine, registry):
        """Per-commit merged byte counts as a histogram, so commit
        behaviour is visible as a distribution; the totals are in
        :meth:`report`."""
        histogram = registry.histogram("tmi.commit_size_bytes",
                                       system=self.name)
        for size in self.stats.commit_sizes:
            histogram.observe(size)

    def report(self, engine):
        out = {"stage": self.stage}
        out.update(self.stats.report(engine.costs))
        out["consistency_flushes"] = self.policy.flushes
        out["relaxed_fast_path"] = self.policy.relaxed_fast_path
        machine = engine.machine
        if machine.topology.sockets > 1:
            # socket-aware coherence the runtime is paying for: every
            # cross-socket HITM it samples costs an extra QPI hop, which
            # changes the repair-vs-placement tradeoff (EXPERIMENTS.md)
            out["hitm_cross_socket"] = \
                machine.directory.hitm_cross_socket_count
            out["qpi_hops"] = machine.directory.qpi_hops
        if self.perf is not None:
            out["perf_events_seen"] = self.perf.events_seen
            out["perf_records"] = self.perf.records_made
            out["perf_estimated_events"] = self.perf.estimated_events()
        if self.detector is not None:
            out["sharing_summary"] = self.detector.sharing_summary()
            out["targeted_pages"] = sorted(
                hex(p) for p in self.detector.targeted_pages)
        if self.ladder is not None:
            out["ladder_level"] = self.ladder.level
        if self.faults is not None:
            out["faults_injected"] = self.faults.fired_counts()
        return out
