"""LASER (Luo et al., HPCA'16) reimplemented on our substrate.

LASER detects false sharing with PEBS HITM counters like TMI, but
repairs it with a *software store buffer* over the offending code
regions: binary instrumentation buffers stores at the hot instructions
and drains them in order, preserving TSO semantics for the whole
program.  Draining at every synchronization boundary (and on buffer
pressure) keeps the batching wins small — the paper measures LASER at
~24% of the manual speedup, with no repair at all on workloads whose
synchronization is too frequent for its TSO store buffer (Figure 9).
"""

from repro.baselines.pthreads import PthreadsRuntime
from repro.core.config import TmiConfig, check_detect_interval
from repro.core.detector import FalseSharingDetector
from repro.isa.disasm import Disassembler
from repro.isa.ops import (AtomicLoad, AtomicRMW, AtomicStore, Fence,
                           Load, Store)
from repro.oskit.perf import PerfSession
from repro.oskit.procmaps import AddressMap

#: Store-buffer capacity (entries) before a forced drain.
BUFFER_CAPACITY = 42

#: Instrumentation costs (cycles per access at instrumented sites).
STORE_INSTR_COST = 170
LOAD_INSTR_COST = 110
FORWARD_COST = 45
DRAIN_PER_STORE = 60


class LaserRuntime(PthreadsRuntime):
    """perf-based detection + TSO software store-buffer repair."""

    name = "laser"

    def __init__(self, config=None):
        super().__init__()
        self.config = config or TmiConfig()
        self.tick_cycles = self.config.detect_interval_cycles
        self.perf = None
        self.detector = None
        self.instrumented_pcs = set()
        self.repair_interval = 0
        self._buffers = {}            # tid -> {addr: (value, width, pc)}
        self._intervals = 0
        self.drains = 0

    # ------------------------------------------------------------------
    def setup(self, engine):
        check_detect_interval(self.tick_cycles, engine.costs)
        super().setup(engine)
        self.perf = PerfSession(engine.costs, period=self.config.period)
        engine.machine.add_hitm_listener(self.perf.on_hitm)
        self.detector = FalseSharingDetector(
            Disassembler(engine.program.binary),
            AddressMap.from_aspace(engine.root_aspace),
            engine.root_aspace, self.config)

    def on_thread_created(self, engine, thread):
        super().on_thread_created(engine, thread)
        self.perf.attach_thread(thread.tid)

    # ------------------------------------------------------------------
    # detection (same machinery as TMI)
    # ------------------------------------------------------------------
    def on_tick(self, engine, now):
        self._intervals += 1
        records = self.perf.drain()
        self.detector.address_map = AddressMap.from_aspace(
            engine.root_aspace)
        self.detector.add_records(records)
        report = self.detector.analyze(self._intervals, self.config.period)
        engine.machine.advance(engine.service_core,
                               self.detector.analysis_cost(engine.costs))
        if not self.config.enable_repair:
            return
        # (re)instrument every PC ever sampled on a targeted line — the
        # binary rewriter widens its patch set as profiles accumulate
        for line_va in self.detector.targeted_pages:
            stats = self.detector.lines.get(line_va)
            if stats is not None:
                self.instrumented_pcs.update(stats.pcs)
        if report.targets and not self.repair_interval:
            self.repair_interval = self._intervals

    # ------------------------------------------------------------------
    # repair: software store buffer at instrumented sites
    # ------------------------------------------------------------------
    def exec_access_override(self, engine, thread, op):
        buffer = self._buffers.get(thread.tid)
        if isinstance(op, Store):
            if op.site.pc not in self.instrumented_pcs:
                return None
            if buffer is None:
                buffer = {}
                self._buffers[thread.tid] = buffer
            buffer[(op.addr, op.width)] = (op.value, op.site.pc)
            thread.stores += 1
            cost = STORE_INSTR_COST
            if len(buffer) >= BUFFER_CAPACITY:
                cost += self._drain(engine, thread)
            return cost, None
        if isinstance(op, Load):
            if buffer:
                entry = buffer.get((op.addr, op.width))
                if entry is not None:
                    thread.loads += 1
                    return FORWARD_COST, entry[0]
                if any(a == op.addr for a, _w in buffer):
                    # width-mismatched aliasing: drain for correctness,
                    # then let the normal load path run
                    drain_cost = self._drain(engine, thread)
                    engine.machine.advance(thread.core, drain_cost)
            if op.site.pc in self.instrumented_pcs:
                # instrumented load: pays the lookup even on miss
                translation = self.translate(engine, thread, op, op.addr,
                                             op.width, False)
                traffic, value = engine.machine.mem_access(
                    thread.core, thread.tid, op.site.pc, op.addr,
                    translation.pa, op.width, False)
                thread.loads += 1
                return (LOAD_INSTR_COST + translation.cost + traffic,
                        value)
            return None
        if isinstance(op, (AtomicRMW, AtomicLoad, AtomicStore, Fence)):
            # TSO: atomics and fences order the store buffer
            if buffer:
                drain_cost = self._drain(engine, thread)
                if drain_cost:
                    engine.machine.advance(thread.core, drain_cost)
            return None
        return None

    def _drain(self, engine, thread, reason="pressure"):
        """Apply buffered stores to memory in order (one coherence
        transaction per distinct address)."""
        buffer = self._buffers.get(thread.tid)
        if not buffer:
            return 0
        cost = 0
        for (addr, width), (value, pc) in buffer.items():
            translation = self.translate(engine, thread, None, addr,
                                         width, True)
            traffic, _ = engine.machine.mem_access(
                thread.core, thread.tid, pc, addr, translation.pa,
                width, True, value)
            cost += traffic + DRAIN_PER_STORE + translation.cost
        buffer.clear()
        self.drains += 1
        return cost

    # ------------------------------------------------------------------
    # TSO: synchronization drains the buffer
    # ------------------------------------------------------------------
    def on_sync_acquired(self, engine, thread, obj, kind):
        return self._drain(engine, thread, kind)

    def on_sync_release(self, engine, thread, obj, kind):
        return self._drain(engine, thread, kind)

    def on_thread_exit(self, engine, thread):
        cost = self._drain(engine, thread, "exit")
        if cost:
            engine.machine.advance(thread.core, cost)

    # ------------------------------------------------------------------
    def memory_report(self, engine):
        return {
            "perf_buffers": self.perf.buffer_memory_bytes(),
            "detector": self.detector.memory_bytes(),
        }

    def report(self, engine):
        return {
            "repaired": bool(self.instrumented_pcs),
            "repair_interval": self.repair_interval,
            "instrumented_pcs": len(self.instrumented_pcs),
            "drains": self.drains,
            "perf_records": self.perf.records_made,
        }
