"""Static trace extraction: abstract interpretation of op streams.

The linter needs to see every address a workload touches *without*
running the simulator.  Workload bodies are generators over ISA ops, so
we can walk them directly: :class:`TraceExtractor` plays the part of the
engine for :class:`~repro.engine.context.ThreadCtx` — same allocator
construction as the pthreads baseline (addresses match a real run
bit-for-bit for the deterministic pre-spawn allocations), a plain
``dict`` memory model, and blocking lock/barrier/join semantics — but
advances no clocks and charges no cycles.

Threads step round-robin, one op per runnable thread per round, which
keeps flag handoffs and lock ping-pong finite without any notion of
time.  Structural bugs (unbalanced regions, unlock-without-lock,
barrier participation mismatches, deadlocks) become findings instead of
the exceptions the engine would raise.

Classification masks are recorded only while at least two threads are
alive: the paper's detector only ever sees *coherence* traffic, so the
serial prologue (main initializing memory before the spawn) and
epilogue (main reducing worker results after the join) must not count,
or every per-thread output block would look truly shared with main.
"""

from dataclasses import dataclass, field

from repro.alloc import LocklessAllocator, RegionBump
from repro.analysis.findings import ERROR, Finding, WARNING
from repro.engine import layout
from repro.engine.context import ThreadCtx
from repro.errors import AllocationError, ReproError
from repro.isa import ops as O
from repro.isa.disasm import Disassembler
from repro.sim.costs import DEFAULT_COSTS, LINE_SIZE
from repro.sync.objects import Barrier, Condvar, Mutex

_READY = "ready"
_BLOCKED = "blocked"
_DONE = "done"

#: Op budget before the extractor declares the trace truncated.
DEFAULT_MAX_OPS = 4_000_000

_LINE_MASK = ~(LINE_SIZE - 1)


class _StubMachine:
    """Just enough machine for ``ThreadCtx.now_cycles``."""

    def __init__(self):
        self.core_clock = [0]


class _TraceThread:
    __slots__ = ("tid", "name", "core", "gen", "state", "blocked_on",
                 "pending", "region_stack", "joiners")

    def __init__(self, tid, name):
        self.tid = tid
        self.name = name
        self.core = 0
        self.gen = None
        self.state = _READY
        self.blocked_on = None
        self.pending = None
        self.region_stack = []
        self.joiners = []


@dataclass(frozen=True)
class AllocationRecord:
    """One ``Malloc`` observed during extraction.

    ``ordinal`` is the global malloc sequence number; for the
    deterministic pre-spawn prologue it identifies the same allocation
    across allocators that place it at *different* addresses (pthreads'
    16-offset large blocks vs TMI's line-aligned ones), which is what
    lets a repair plan follow an object into every system variant.
    """

    ordinal: int
    tid: int
    base: int
    size: int
    align: int
    prespawn: bool


@dataclass
class ExtractResult:
    """Everything the linter learns from one abstract execution."""

    #: Structural and per-access findings discovered while tracing.
    findings: list = field(default_factory=list)
    #: line_va -> {tid: [read_byte_mask, write_byte_mask]}, recorded
    #: only during the parallel phase.
    lines: dict = field(default_factory=dict)
    #: line_va -> set of site labels that touched the line.
    line_sites: dict = field(default_factory=dict)
    #: Feature classes actually executed: atomics/asm/volatile/fence.
    executed: dict = field(default_factory=dict)
    #: Every Malloc in program order (:class:`AllocationRecord`).
    allocations: list = field(default_factory=list)
    #: ``(addr, size)`` byte spans owned by registered sync objects.
    sync_ranges: list = field(default_factory=list)
    #: line_va -> set of ``(tid, addr, width, is_write)`` access
    #: intervals, recorded for *every* phase (the repair rewriter must
    #: remap prologue/epilogue accesses too, so atom boundaries have to
    #: respect them).
    intervals: dict = field(default_factory=dict)
    #: ``(addr, nbytes)`` spans streamed through BulkTouch (analytic
    #: accesses carry no values, so the repair planner must not
    #: relocate bytes they cover).
    bulk_ranges: set = field(default_factory=set)
    #: Heap-region bytes consumed before the first ThreadCreate — the
    #: deterministic prefix a repair plan may rely on.
    prespawn_used: int = 0
    ops: int = 0
    threads: int = 0
    truncated: bool = False


class TraceExtractor:
    """Abstractly interprets one Program's op streams."""

    def __init__(self, program, max_ops=DEFAULT_MAX_OPS):
        self.program = program
        self.max_ops = max_ops
        self.machine = _StubMachine()
        binary = program.binary
        # mirror Engine.__init__'s glibc-text registration so the traced
        # sync traffic carries the same sites a simulation would
        self._lock_site = binary.site("atomic", 4, "pthread_lock")
        self._barrier_site = binary.site("atomic", 4, "pthread_barrier")
        self._disasm = Disassembler(binary)
        # same allocator construction as the pthreads baseline, so
        # deterministic allocations land at the same addresses
        region = RegionBump(layout.HEAP_BASE, program.heap_bytes, "heap")
        self.allocator = LocklessAllocator(region, DEFAULT_COSTS)

        self.threads = {}
        self.sync_objects = []
        self._next_tid = 0
        self._mutex_ids = 0
        self._barrier_ids = 0
        self._condvar_ids = 0
        self._alive = 0
        self._memory = {}
        self._spawned = False
        self._result = ExtractResult(
            executed={"atomics": False, "asm": False,
                      "volatile": False, "fence": False})
        self._seen = set()            # finding dedup keys

        self._op_table = {
            O.Compute: self._op_nop,
            O.BulkTouch: self._op_bulk,
            O.Load: self._op_load,
            O.Store: self._op_store,
            O.RmwSeq: self._op_rmw_seq,
            O.StoreSeq: self._op_store_seq,
            O.AtomicLoad: self._op_atomic_load,
            O.AtomicStore: self._op_atomic_store,
            O.AtomicRMW: self._op_rmw,
            O.Fence: self._op_fence,
            O.RegionBegin: self._op_region_begin,
            O.RegionEnd: self._op_region_end,
            O.MutexLock: self._op_lock,
            O.MutexUnlock: self._op_unlock,
            O.BarrierWait: self._op_barrier,
            O.CondWait: self._op_cond_wait,
            O.CondSignal: self._op_cond_signal,
            O.Malloc: self._op_malloc,
            O.FreeOp: self._op_free,
            O.ThreadCreate: self._op_create,
            O.ThreadJoin: self._op_join,
        }

    # ------------------------------------------------------------------
    # stub-engine surface consumed by ThreadCtx
    # ------------------------------------------------------------------
    def sync_object_size(self, kind):
        return {"mutex": Mutex.SIZE, "barrier": Barrier.SIZE,
                "condvar": Condvar.SIZE}[kind]

    def register_mutex(self, thread, addr, name=""):
        self._mutex_ids += 1
        mutex = Mutex(mid=self._mutex_ids, addr=addr, name=name)
        self.sync_objects.append(mutex)
        return mutex

    def register_barrier(self, thread, addr, parties, name=""):
        self._barrier_ids += 1
        barrier = Barrier(bid=self._barrier_ids, addr=addr,
                          parties=parties, name=name)
        self.sync_objects.append(barrier)
        return barrier

    def register_condvar(self, thread, addr, name=""):
        self._condvar_ids += 1
        condvar = Condvar(cid=self._condvar_ids, addr=addr, name=name)
        self.sync_objects.append(condvar)
        return condvar

    def stack_base(self, tid):
        return layout.stack_base(tid)

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def run(self):
        """Trace the program to completion (or budget/deadlock)."""
        self._spawn(self.program.main, "main")
        result = self._result
        while True:
            progressed = False
            for tid in sorted(self.threads):
                thread = self.threads[tid]
                if thread.state != _READY:
                    continue
                self._step(thread)
                progressed = True
                if result.ops >= self.max_ops:
                    result.truncated = True
                    self._finding(Finding(
                        "trace-truncated", WARNING,
                        f"op budget ({self.max_ops}) exhausted; "
                        f"findings may be incomplete"))
                    result.threads = len(self.threads)
                    self._finish_result()
                    return result
            if self._alive == 0:
                break
            if not progressed:
                self._report_deadlock()
                break
        result.threads = len(self.threads)
        self._finish_result()
        return result

    def _finish_result(self):
        result = self._result
        result.sync_ranges = sorted(
            (obj.addr, obj.SIZE) for obj in self.sync_objects)
        if not self._spawned:
            result.prespawn_used = self.allocator.region.used

    def _spawn(self, body, name):
        tid = self._next_tid
        self._next_tid += 1
        thread = _TraceThread(tid, name)
        ctx = ThreadCtx(self, thread, self.program.binary)
        thread.gen = body(ctx)
        self.threads[tid] = thread
        self._alive += 1
        return thread

    def _step(self, thread):
        try:
            op = thread.gen.send(thread.pending)
        except StopIteration:
            self._finish(thread)
            return
        except (ReproError, AssertionError) as exc:
            self._finding(Finding(
                "trace-aborted", WARNING,
                f"t{thread.tid} ({thread.name}) aborted: {exc}"))
            self._finish(thread)
            return
        thread.pending = None
        self._result.ops += 1
        handler = self._op_table.get(op.__class__)
        if handler is None:
            self._finding(Finding("unknown-op", ERROR,
                                  f"unrecognized op {op!r}"))
            return
        value, blocked = handler(thread, op)
        if not blocked:
            thread.pending = value

    def _finish(self, thread):
        thread.state = _DONE
        self._alive -= 1
        for kind in thread.region_stack:
            self._finding(Finding(
                "region-nesting", ERROR,
                f"t{thread.tid} ({thread.name}) exited with an open "
                f"{kind} region"))
        thread.region_stack = []
        held = [m for m in self.sync_objects
                if isinstance(m, Mutex) and m.owner_tid == thread.tid]
        for mutex in held:
            self._finding(Finding(
                "lock-pairing", WARNING,
                f"t{thread.tid} exited holding "
                f"mutex {mutex.name or mutex.mid}"))
        for tid in thread.joiners:
            joiner = self.threads[tid]
            if joiner.state == _BLOCKED:
                joiner.state = _READY
                joiner.blocked_on = None
        thread.joiners = []

    def _report_deadlock(self):
        stuck = [t for t in self.threads.values() if t.state != _DONE]
        reported_barriers = set()
        for thread in stuck:
            blocked = thread.blocked_on
            if isinstance(blocked, Barrier):
                if blocked.bid in reported_barriers:
                    continue
                reported_barriers.add(blocked.bid)
                self._finding(Finding(
                    "barrier-mismatch", ERROR,
                    f"barrier {blocked.name or blocked.bid} never "
                    f"releases: {len(blocked.arrived)} of "
                    f"{blocked.parties} parties arrived"))
            elif isinstance(blocked, Mutex):
                self._finding(Finding(
                    "deadlock", ERROR,
                    f"t{thread.tid} stuck waiting for mutex "
                    f"{blocked.name or blocked.mid} held by "
                    f"t{blocked.owner_tid}"))
            elif isinstance(blocked, Condvar):
                self._finding(Finding(
                    "deadlock", ERROR,
                    f"t{thread.tid} stuck in cond_wait on "
                    f"{blocked.name or blocked.cid} with no signaller"))
            else:
                self._finding(Finding(
                    "deadlock", ERROR,
                    f"t{thread.tid} stuck on {blocked!r}"))

    # ------------------------------------------------------------------
    # access recording
    # ------------------------------------------------------------------
    def _record(self, tid, site, addr, width, is_write, atomic=False):
        self._check_access(site, addr, width, is_write, atomic)
        parallel = self._alive >= 2
        lines = self._result.lines
        line_sites = self._result.line_sites
        intervals = self._result.intervals
        end = addr + width
        while addr < end:
            line = addr & _LINE_MASK
            take = min(end, line + LINE_SIZE) - addr
            intervals.setdefault(line, set()).add(
                (tid, addr, take, is_write))
            if parallel:
                mask = ((1 << take) - 1) << (addr - line)
                record = lines.setdefault(line, {}).setdefault(
                    tid, [0, 0])
                record[1 if is_write else 0] |= mask
                sites = line_sites.setdefault(line, set())
                if len(sites) < 8:
                    sites.add(site.label or f"{site.pc:#x}")
            addr += take

    def _check_access(self, site, addr, width, is_write, atomic):
        pc = site.pc
        decoded = self._disasm.decode(pc)
        if decoded is None:
            self._finding(Finding(
                "unknown-pc", ERROR,
                f"access from pc {pc:#x} not in the binary image",
                pc=pc), key=("unknown-pc", pc))
            return
        if is_write and not decoded.is_store:
            self._finding(Finding(
                "access-kind-mismatch", ERROR,
                f"store through load-only site {decoded.label}",
                pc=pc, label=decoded.label),
                key=("kind", pc, True))
        elif not is_write and not decoded.is_load and not atomic:
            self._finding(Finding(
                "access-kind-mismatch", ERROR,
                f"load through store-only site {decoded.label}",
                pc=pc, label=decoded.label),
                key=("kind", pc, False))
        if width != decoded.width:
            self._finding(Finding(
                "access-width-mismatch", WARNING,
                f"site {decoded.label} decodes as {decoded.width}-byte "
                f"but accesses {width} bytes",
                pc=pc, label=decoded.label), key=("width", pc, width))
        if (addr & (LINE_SIZE - 1)) + width > LINE_SIZE:
            self._finding(Finding(
                "line-straddle", ERROR,
                f"{width}-byte access at {addr:#x} straddles a cache "
                f"line boundary",
                pc=pc, label=decoded.label,
                line_va=addr & _LINE_MASK), key=("straddle", pc))
        elif width in (2, 4, 8) and addr % width:
            self._finding(Finding(
                "access-misaligned", WARNING,
                f"{width}-byte access at misaligned address {addr:#x}",
                pc=pc, label=decoded.label), key=("align", pc))

    def _sync_touch(self, thread, obj):
        """Acquire/release traffic on the object's hot word (mirrors
        ``Engine._sync_traffic``)."""
        site = (self._barrier_site if isinstance(obj, Barrier)
                else self._lock_site)
        self._record(thread.tid, site, obj.hot_addr, obj.width, True,
                     atomic=True)

    def _finding(self, finding, key=None):
        if key is not None:
            if key in self._seen:
                return
            self._seen.add(key)
        self._result.findings.append(finding)

    # ------------------------------------------------------------------
    # op handlers: (value_to_send, blocked)
    # ------------------------------------------------------------------
    def _op_nop(self, thread, op):
        return None, False

    def _op_bulk(self, thread, op):
        self._result.bulk_ranges.add((op.addr, op.nbytes))
        return None, False

    def _op_load(self, thread, op):
        if op.volatile:
            self._result.executed["volatile"] = True
        self._record(thread.tid, op.site, op.addr, op.width, False)
        return self._memory.get(op.addr, 0), False

    def _op_store(self, thread, op):
        if op.volatile:
            self._result.executed["volatile"] = True
        self._record(thread.tid, op.site, op.addr, op.width, True)
        self._memory[op.addr] = op.value
        return None, False

    def _op_rmw_seq(self, thread, op):
        if op.volatile:
            self._result.executed["volatile"] = True
        deltas = op.deltas
        const = deltas if isinstance(deltas, int) else None
        mask = (1 << (8 * op.width)) - 1
        memory = self._memory
        for i, addr in enumerate(op.addrs):
            self._record(thread.tid, op.load_site, addr, op.width,
                         False)
            old = memory.get(addr, 0)
            delta = const if const is not None else deltas[i]
            memory[addr] = (old + delta) & mask
            self._record(thread.tid, op.store_site, addr, op.width,
                         True)
        self._result.ops += max(0, 2 * len(op.addrs) - 1)
        return None, False

    def _op_store_seq(self, thread, op):
        if op.volatile:
            self._result.executed["volatile"] = True
        for value in op.values:
            self._record(thread.tid, op.site, op.addr, op.width, True)
        self._memory[op.addr] = op.values[-1]
        self._result.ops += max(0, len(op.values) - 1)
        return None, False

    def _op_atomic_load(self, thread, op):
        self._result.executed["atomics"] = True
        self._record(thread.tid, op.site, op.addr, op.width, False,
                     atomic=True)
        return self._memory.get(op.addr, 0), False

    def _op_atomic_store(self, thread, op):
        self._result.executed["atomics"] = True
        self._record(thread.tid, op.site, op.addr, op.width, True,
                     atomic=True)
        self._memory[op.addr] = op.value
        return None, False

    def _op_rmw(self, thread, op):
        self._result.executed["atomics"] = True
        old = self._memory.get(op.addr, 0)
        if op.op == "add":
            new = old + op.operand
        elif op.op == "xchg":
            new = op.operand
        elif op.op == "cas":
            new = op.operand if old == op.expected else old
        else:
            self._finding(Finding("unknown-op", ERROR,
                                  f"unknown RMW op {op.op!r}"))
            new = old
        self._memory[op.addr] = new
        self._record(thread.tid, op.site, op.addr, op.width, True,
                     atomic=True)
        return old, False

    def _op_fence(self, thread, op):
        self._result.executed["fence"] = True
        return None, False

    def _op_region_begin(self, thread, op):
        if op.kind == O.REGION_ASM:
            self._result.executed["asm"] = True
        thread.region_stack.append(op.kind)
        return None, False

    def _op_region_end(self, thread, op):
        if not thread.region_stack or thread.region_stack[-1] != op.kind:
            opened = (thread.region_stack[-1] if thread.region_stack
                      else "no open region")
            self._finding(Finding(
                "region-nesting", ERROR,
                f"t{thread.tid}: RegionEnd({op.kind}) does not match "
                f"{opened}"))
            return None, False
        thread.region_stack.pop()
        return None, False

    def _op_malloc(self, thread, op):
        try:
            addr, _cost = self.allocator.malloc(thread.tid, op.size,
                                                op.align)
        except AllocationError as exc:
            self._finding(Finding("allocation", ERROR, str(exc)))
            return 0, False
        allocations = self._result.allocations
        allocations.append(AllocationRecord(
            ordinal=len(allocations), tid=thread.tid, base=addr,
            size=op.size, align=op.align, prespawn=not self._spawned))
        return addr, False

    def _op_free(self, thread, op):
        try:
            self.allocator.free(thread.tid, op.addr)
        except AllocationError as exc:
            self._finding(Finding("allocation", ERROR, str(exc)))
        return None, False

    def _op_lock(self, thread, op):
        mutex = op.mutex
        mutex.acquire_count += 1
        self._sync_touch(thread, mutex)
        if mutex.owner_tid is None:
            mutex.owner_tid = thread.tid
            return None, False
        mutex.contended_count += 1
        mutex.waiters.append(thread.tid)
        thread.state = _BLOCKED
        thread.blocked_on = mutex
        return None, True

    def _op_unlock(self, thread, op):
        mutex = op.mutex
        if mutex.owner_tid != thread.tid:
            owner = ("unlocked" if mutex.owner_tid is None
                     else f"owned by t{mutex.owner_tid}")
            self._finding(Finding(
                "lock-pairing", ERROR,
                f"t{thread.tid} unlocks mutex "
                f"{mutex.name or mutex.mid} ({owner})"))
            return None, False
        self._sync_touch(thread, mutex)
        if mutex.waiters:
            next_tid = mutex.waiters.pop(0)
            mutex.owner_tid = next_tid
            woken = self.threads[next_tid]
            woken.state = _READY
            woken.blocked_on = None
        else:
            mutex.owner_tid = None
        return None, False

    def _op_barrier(self, thread, op):
        barrier = op.barrier
        barrier.wait_count += 1
        self._sync_touch(thread, barrier)
        barrier.arrived.append(thread.tid)
        if len(barrier.arrived) < barrier.parties:
            thread.state = _BLOCKED
            thread.blocked_on = barrier
            return None, True
        for tid in barrier.arrived:
            if tid == thread.tid:
                continue
            waiter = self.threads[tid]
            waiter.state = _READY
            waiter.blocked_on = None
        barrier.generation += 1
        barrier.arrived = []
        return None, False

    def _op_cond_wait(self, thread, op):
        condvar, mutex = op.condvar, op.mutex
        if mutex.owner_tid != thread.tid:
            self._finding(Finding(
                "lock-pairing", ERROR,
                f"t{thread.tid} cond_waits without holding mutex "
                f"{mutex.name or mutex.mid}"))
            return None, False
        self._sync_touch(thread, condvar)
        if mutex.waiters:
            next_tid = mutex.waiters.pop(0)
            mutex.owner_tid = next_tid
            woken = self.threads[next_tid]
            woken.state = _READY
            woken.blocked_on = None
        else:
            mutex.owner_tid = None
        condvar.waiters.append((thread.tid, mutex))
        thread.state = _BLOCKED
        thread.blocked_on = condvar
        return None, True

    def _op_cond_signal(self, thread, op):
        condvar = op.condvar
        self._sync_touch(thread, condvar)
        count = len(condvar.waiters) if op.broadcast else 1
        for _ in range(min(count, len(condvar.waiters))):
            tid, mutex = condvar.waiters.pop(0)
            waiter = self.threads[tid]
            if mutex.owner_tid is None:
                mutex.owner_tid = tid
                waiter.state = _READY
                waiter.blocked_on = None
            else:
                waiter.blocked_on = mutex
                mutex.waiters.append(tid)
        return None, False

    def _op_create(self, thread, op):
        if not self._spawned:
            self._spawned = True
            self._result.prespawn_used = self.allocator.region.used
        child = self._spawn(op.body, op.name)
        return child.tid, False

    def _op_join(self, thread, op):
        target = self.threads.get(op.tid)
        if target is None:
            self._finding(Finding(
                "deadlock", ERROR,
                f"t{thread.tid} joins unknown thread {op.tid}"))
            return None, False
        if target.state == _DONE:
            return None, False
        target.joiners.append(thread.tid)
        thread.state = _BLOCKED
        thread.blocked_on = ("join", op.tid)
        return None, True
