"""The discrete-event execution engine.

Runs a :class:`~repro.engine.program.Program` on a simulated
:class:`~repro.sim.machine.Machine` under a runtime
(:class:`~repro.engine.hooks.RuntimeHooks`).

Scheduling is deterministic: one loop pops the runnable thread with
the smallest ready time off the ready heap and executes one ISA op;
ties break by insertion order.  Each op's cycle cost advances that
thread's core clock.  Blocking (locks, barriers, joins) parks threads
off the ready heap; stop-the-world requests (the monitor's ptrace
attach) park every thread at its next op boundary — exactly where a
real signal stop would land.  When the thread that just ran would be
popped next anyway, with nothing due in between, its generator is sent
its next value at once (run-on, in :meth:`Engine._run_loop`), without
a trip through the heap.  A batched op (``AccessRun``, ``RmwSeq``,
``StoreSeq``) runs as a continuation on the thread, sub-op by sub-op,
and yields the core wherever the unbatched loop would have.  When it
yields only to another mid-run thread, the continuation makes the
loop's next dispatch itself and runs that thread on (the band, in
:meth:`Engine._run_seq`), so contended runs trade the core without a
trip through the loop; only a break the lockstep kernel would take a
window at returns there.

A :class:`~repro.schedule.SchedulePolicy` passed as ``policy=`` is the
loop's pick step: whenever more than one thread is runnable, the policy
picks the next one from the runnable set, the engine records the
decision, and the log replays any interleaving exactly (see
:mod:`repro.schedule`).  Continuations then yield after every access,
so each access is a decision point, and there is no run-on, band or
lockstep kernel.
"""

import heapq

from repro.engine import layout
from repro.engine.context import ThreadCtx
from repro.engine.hooks import RuntimeHooks
from repro.engine.program import RunResult
from repro.engine.thread import (BLOCKED, DONE, PARKED, READY, SimProcess,
                                 SimThread)
from repro.errors import CycleBudgetError, DeadlockError, SimulationError
from repro.isa import ops as O
from repro.isa.lowering import validate_run
from repro.mapping.placement import CompactPlacement
from repro.sync.objects import Barrier, Condvar, Mutex


class Engine:
    """Executes one program under one runtime on one machine."""

    def __init__(self, program, runtime, machine=None, n_cores=None,
                 costs=None, max_cycles=200_000_000_000, policy=None,
                 vector=True, placement=None):
        from repro.sim.machine import Machine
        if n_cores is None:
            n_cores = program.nthreads + 2
        self.machine = machine or Machine(n_cores=n_cores, costs=costs)
        #: Thread-placement policy (repro.mapping): tid -> core, the
        #: last core reserved for the service thread.
        self.placement = placement or CompactPlacement(
            self.machine.topology, self.machine.n_cores)
        self.costs = self.machine.costs
        self.program = program
        self.runtime = runtime
        self.max_cycles = max_cycles
        #: Schedule policy (repro.schedule): the scheduling loop's pick
        #: step.  None runs the earliest heap entry, with no per-op
        #: overhead.
        self.policy = policy
        self._policy_notify = (policy is not None
                               and getattr(policy, "wants_op_events",
                                           False))
        #: Decision log: chosen index into the runnable candidate list
        #: (sorted by ready time, then seq) at every point where more
        #: than one thread was runnable.  Only populated in policy mode.
        self.schedule_decisions = []

        self.threads = {}
        self.processes = {}
        self._next_tid = 0
        self._next_pid = 0
        self._heap = []                # (ready_time, seq, tid)
        self._seq = 0
        self._stop_world = []          # pending monitor callbacks
        self._next_tick = runtime.tick_cycles or None
        self._mutex_ids = 0
        self._barrier_ids = 0
        self._condvar_ids = 0
        self.sync_objects = []
        #: Service core for the monitor/detector (last core).
        self.service_core = self.machine.n_cores - 1
        #: Analysis observer (repro.analysis); None keeps every
        #: emission guard a single attribute test on the hot path.
        self._observer = None
        #: Vector batch executor (repro.engine.vector); constructed in
        #: :meth:`run` once eligibility is known.  ``vector=False``
        #: forces the serial path; the default enables it whenever
        #: exactness-safe.
        self._vector_enabled = vector
        self._vector = None

        # generic lock/barrier instruction sites (glibc text)
        self._lock_site = program.binary.site("atomic", 4, "pthread_lock")
        self._barrier_site = program.binary.site("atomic", 4,
                                                 "pthread_barrier")

        # Only LASER overrides the per-access interception hook; every
        # other runtime skips the call instead of paying a Python frame
        # per no-op.  (PTSB routing is per-process data instead:
        # SimProcess.routed.)
        self._rt_override = (
            getattr(type(runtime), "exec_access_override", None)
            is not RuntimeHooks.exec_access_override)

        # Type-keyed dispatch: one dict probe on the op's exact class
        # instead of walking an isinstance chain per op.  Op classes are
        # final (slotted dataclasses, never subclassed), so exact-class
        # keying is sound.  A Compute op has no handler: the scheduling
        # loop charges its cycles itself.
        self._exec_table = {
            O.Load: self._exec_load_store,
            O.Store: self._exec_load_store,
            O.AccessRun: self._exec_seq_op,
            O.RmwSeq: self._exec_seq_op,
            O.StoreSeq: self._exec_seq_op,
            O.AtomicLoad: self._exec_access,
            O.AtomicStore: self._exec_access,
            O.AtomicRMW: self._exec_access,
            O.BulkTouch: self._exec_bulk,
            O.RegionBegin: self._exec_region_begin,
            O.RegionEnd: self._exec_region_end,
            O.Fence: self._exec_fence,
            O.MutexLock: self._exec_lock,
            O.MutexUnlock: self._exec_unlock,
            O.BarrierWait: self._exec_barrier,
            O.CondWait: self._exec_cond_wait,
            O.CondSignal: self._exec_cond_signal,
            O.Malloc: self._exec_malloc,
            O.FreeOp: self._exec_free,
            O.ThreadCreate: self._exec_thread_create,
            O.ThreadJoin: self._exec_thread_join,
        }

        runtime.check_workload(program)
        runtime.setup(self)            # sets root_aspace, allocator
        root = SimProcess(pid=self._next_pid, aspace=self.root_aspace,
                          name="app")
        self._next_pid += 1
        self.processes[root.pid] = root
        self.root_process = root

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def attach_observer(self, observer):
        """Attach an analysis observer (see :mod:`repro.analysis`).

        Must happen before :meth:`run`.  Observer callbacks charge no
        cycles; with no observer attached none are emitted.  A second
        attach wraps both observers in an
        :class:`~repro.analysis.observer.ObserverMux`, so the race
        sanitizer and a tracer can ride the same run.

        Observers that override ``on_hitm`` (the tracer, the HITM
        ground-truth collector) are also registered here as machine
        HITM listeners, after the runtime's own; the listener charges
        zero cycles, so simulated results are unchanged.
        """
        from repro.analysis.observer import EngineObserver, ObserverMux
        if self._observer is None:
            self._observer = observer
        elif isinstance(self._observer, ObserverMux):
            self._observer.add(observer)
        else:
            self._observer = ObserverMux([self._observer, observer])
        if type(observer).on_hitm is not EngineObserver.on_hitm:
            def _hitm_listener(event, _observer=observer):
                _observer.on_hitm(event)
                return 0
            self.machine.add_hitm_listener(_hitm_listener)
        observer.on_attach(self)

    def run(self):
        """Execute the program to completion; returns a RunResult."""
        self._build_vector()
        main = self._create_thread(self.program.main, "main",
                                   self.root_process)
        self.runtime.on_thread_created(self, main)
        if self._observer is not None:
            self._observer.on_thread_create(None, main.tid)
        self._schedule(main, 0)
        self._run_loop()
        unfinished = [t.tid for t in self.threads.values()
                      if t.state != DONE]
        if unfinished:
            raise DeadlockError(unfinished)
        return self._build_result()

    def _build_vector(self):
        """Construct the vector executor when the run is eligible.

        Eligibility is the fallback-boundary contract from
        :mod:`repro.engine.vector`: no schedule policy, no runtime that
        intercepts whole accesses (LASER's store buffer, the one
        ``exec_access_override``), no fault injector, and no observer
        unless it declares itself ``vector_safe`` (its per-access
        callbacks are no-ops).  TMI and Sheriff runs are eligible: PTSB
        pages translate through the address space's cache like any
        other, and the accesses TMI routes around its PTSB are declined
        run by run (:attr:`~repro.engine.thread.SimProcess.routed`).
        Ineligible runs keep ``_vector`` at None — the serial path,
        byte-identical anyway.
        """
        if not self._vector_enabled or self.policy is not None:
            return
        if self._rt_override:
            return
        if getattr(self.runtime, "faults", None) is not None:
            return
        if self._observer is not None and not getattr(
                self._observer, "vector_safe", False):
            return
        from repro.engine.vector import VectorExecutor
        self._vector = VectorExecutor(self)

    def _run_loop(self):
        """The scheduling loop: pop the earliest live ready-heap entry,
        let the schedule policy (if any) pick the thread to run instead
        (:meth:`_pick`), and dispatch one op of it.

        A dispatch first brings the thread's core clock up to its ready
        time and charges its pending penalty.  A thread mid-way through
        a batched op then resumes it (:meth:`_run_seq`); any other
        thread's generator yields its next op.  A ``Compute`` op's
        cycles are charged here; every other op runs through the
        type-keyed handler table.

        Run-on: after a generator op that did not block, the loop would
        pop the same thread next, and do nothing else first, when there
        is no schedule policy, no pending stop-the-world or penalty, no
        due tick, the budget holds and the thread's clock is strictly
        below every ready time on the heap.  Then the generator is sent
        its next value at once, with no heap entry and no ``seq``: only
        the relative order of heap entries matters, and it does not
        change.  After an op that does not run on, the loop writes the
        thread's heap entry itself, as :meth:`_schedule` would (the
        thread is READY already)."""
        heap = self._heap
        heappush = heapq.heappush
        compute_op = O.Compute
        threads = self.threads
        core_clock = self.machine.core_clock
        max_cycles = self.max_cycles
        vector = self._vector
        policy = self.policy
        policy_notify = self._policy_notify
        exec_table = self._exec_table
        # under a schedule policy every op is a decision point
        run_on = policy is None
        if policy is not None:
            policy.reset(self)
        while heap:
            ready_time, seq, tid = heapq.heappop(heap)
            thread = threads[tid]
            if thread.state != READY or thread.seq != seq:
                continue
            if self._stop_world:
                self._park(thread, ready_time)
                continue
            if policy is not None and heap:
                ready_time, seq, tid = self._pick((ready_time, seq, tid))
                thread = threads[tid]
            core = thread.core
            clock = core_clock[core]
            if ready_time > clock:
                clock = ready_time
            core_clock[core] = clock + thread.pending_penalty
            thread.pending_penalty = 0
            if thread.run_op is not None:
                # resume an in-flight AccessRun/RmwSeq/StoreSeq without
                # re-entering the generator
                if policy_notify:
                    policy.notify_op(tid, thread.run_op.__class__.__name__)
                self._run_seq(thread)
            else:
                gen = thread.gen
                while True:
                    try:
                        op = gen.send(thread.pending_value)
                    except StopIteration:
                        self._finish_thread(thread)
                        break
                    thread.pending_value = None
                    thread.ops += 1
                    cls = op.__class__
                    if policy_notify:
                        policy.notify_op(tid, cls.__name__)
                    if cls is compute_op:
                        cost = op.cycles
                        value = None
                    else:
                        handler = exec_table.get(cls)
                        if handler is None:
                            raise SimulationError(f"unknown op {op!r}")
                        cost, value, blocked = handler(thread, op)
                        if blocked:
                            break
                    # handlers may advance the clock themselves: add to
                    # the live one
                    clock = core_clock[core] + cost
                    core_clock[core] = clock
                    thread.pending_value = value
                    # run on: when this thread's clock is strictly before
                    # every ready time on the heap (a stale head only
                    # lowers the bound), the loop would pop it next, with
                    # nothing to do in between, so send it its next value
                    # now, with no heap entry and no seq
                    if run_on and not (heap and heap[0][0] <= clock) \
                            and not self._stop_world \
                            and not thread.pending_penalty:
                        now = max(core_clock)
                        next_tick = self._next_tick
                        if (next_tick is None or now < next_tick) \
                                and now <= max_cycles:
                            continue
                    thread.ready_time = clock
                    seq = self._seq + 1
                    self._seq = seq
                    thread.seq = seq
                    heappush(heap, (clock, seq, tid))
                    break
            if vector is not None and vector.hint:
                vector.hint = False
                vector.try_lockstep()
            # machine.now, read once; a due tick may move the service
            # core, so the budget then sees the post-tick clock
            now = max(core_clock)
            next_tick = self._next_tick
            if next_tick is not None and now >= next_tick:
                self._run_ticks()
                now = max(core_clock)
            if now > max_cycles:
                raise CycleBudgetError(now, max_cycles,
                                       trace=self.schedule_trace())

    def _pick(self, first):
        """The policy's pick step.  ``first`` is the earliest live heap
        entry; pop the other live entries (dropping stale ones), let the
        policy choose among all of their threads in the heap's
        ``(ready_time, seq)`` order, log the choice, and push the other
        entries back unchanged.  Returns the chosen entry."""
        heap = self._heap
        threads = self.threads
        entries = [first]
        while heap:
            entry = heapq.heappop(heap)
            thread = threads[entry[2]]
            if thread.state == READY and thread.seq == entry[1]:
                entries.append(entry)
        if len(entries) == 1:
            return first
        policy = self.policy
        index = policy.choose([threads[tid] for _rt, _seq, tid in entries])
        if not 0 <= index < len(entries):
            raise SimulationError(
                f"policy {policy.name} chose index {index} of "
                f"{len(entries)} candidates")
        self.schedule_decisions.append(index)
        chosen = entries.pop(index)
        # the heap is empty, and a sorted list is a valid heap
        heap.extend(entries)
        return chosen

    def schedule_trace(self):
        """Snapshot of the schedule decisions made so far, or None for
        default (policy-less) runs, which record nothing."""
        if self.policy is None:
            return None
        return {"policy": self.policy.name,
                "seed": getattr(self.policy, "seed", None),
                "decisions": list(self.schedule_decisions)}

    # ------------------------------------------------------------------
    # thread management
    # ------------------------------------------------------------------
    def _create_thread(self, body, name, process):
        tid = self._next_tid
        self._next_tid += 1
        core = self.placement.core_for(tid)
        thread = SimThread(tid, name, core, process, body)
        ctx = ThreadCtx(self, thread, self.program.binary)
        thread.gen = body(ctx)
        process.threads.append(thread)
        self.threads[tid] = thread
        return thread

    def convert_thread_to_process(self, thread, name=""):
        """Re-home ``thread`` into a fresh process with a forked address
        space (the fork the monitor injects during T2P, section 3.2).

        Returns the new :class:`SimProcess`.  Charges nothing — callers
        (ptrace monitor) account the cost.
        """
        old = thread.process
        pid = self._next_pid
        self._next_pid += 1
        aspace = old.aspace.fork(name or f"p{pid}")
        proc = SimProcess(pid=pid, aspace=aspace,
                          name=name or f"{thread.name}-proc")
        self.processes[pid] = proc
        old.threads.remove(thread)
        thread.process = proc
        proc.threads.append(thread)
        # the converted thread's accesses now translate to new physical
        # frames as pages go COW; drop the owner micro-cache rather than
        # reasoning about which entries the re-homing can strand
        self.machine.directory.invalidate_fast_path()
        return proc

    def request_stop_world(self, callback):
        """Stop every thread at its next op boundary, then run
        ``callback(engine, stop_time)`` (the monitor's intervention)."""
        self._stop_world.append(callback)

    # ------------------------------------------------------------------
    # sync object registration (pthread_*_init interposition points)
    # ------------------------------------------------------------------
    def sync_object_size(self, kind):
        """sizeof(pthread_<kind>_t) for the workload's malloc call."""
        return {"mutex": Mutex.SIZE, "barrier": Barrier.SIZE,
                "condvar": Condvar.SIZE}[kind]

    def register_mutex(self, thread, addr, name=""):
        """pthread_mutex_init: create a mutex at ``addr``."""
        self._mutex_ids += 1
        mutex = Mutex(mid=self._mutex_ids, addr=addr, name=name)
        self.sync_objects.append(mutex)
        extra = self.runtime.on_sync_object_init(self, thread, mutex) or 0
        self.machine.advance(thread.core, extra)
        return mutex

    def register_barrier(self, thread, addr, parties, name=""):
        """pthread_barrier_init for ``parties`` threads at ``addr``."""
        self._barrier_ids += 1
        barrier = Barrier(bid=self._barrier_ids, addr=addr, parties=parties,
                          name=name)
        self.sync_objects.append(barrier)
        extra = self.runtime.on_sync_object_init(self, thread, barrier) or 0
        self.machine.advance(thread.core, extra)
        return barrier

    def register_condvar(self, thread, addr, name=""):
        """pthread_cond_init: create a condvar at ``addr``."""
        self._condvar_ids += 1
        condvar = Condvar(cid=self._condvar_ids, addr=addr, name=name)
        self.sync_objects.append(condvar)
        extra = self.runtime.on_sync_object_init(self, thread, condvar) or 0
        self.machine.advance(thread.core, extra)
        return condvar

    def stack_base(self, tid):
        """Base VA of ``tid``'s stack mapping."""
        return layout.stack_base(tid)

    # ------------------------------------------------------------------
    # scheduling internals
    # ------------------------------------------------------------------
    def _schedule(self, thread, at_time):
        thread.state = READY
        thread.ready_time = at_time
        self._seq += 1
        thread.seq = self._seq
        heapq.heappush(self._heap, (at_time, self._seq, thread.tid))

    def _park(self, thread, ready_time):
        thread.state = PARKED
        thread.ready_time = ready_time
        if not any(t.state == READY for t in self.threads.values()):
            self._run_stop_world()

    def _run_stop_world(self):
        stop_time = max(
            [t.ready_time for t in self.threads.values()
             if t.state == PARKED] + [self.machine.now])
        callbacks, self._stop_world = self._stop_world, []
        for callback in callbacks:
            callback(self, stop_time)
        for thread in self.threads.values():
            if thread.state == PARKED:
                penalty = thread.pending_penalty
                thread.pending_penalty = 0
                self._schedule(thread,
                               max(thread.ready_time, stop_time) + penalty)

    def _finish_thread(self, thread):
        if thread.region_stack:
            kinds = [kind for kind, _ in thread.region_stack]
            raise SimulationError(
                f"{thread} exited with open region(s): {kinds}")
        thread.state = DONE
        observer = self._observer
        self.runtime.on_thread_exit(self, thread)
        if observer is not None:
            observer.on_thread_exit(thread.tid)
        now = self.machine.core_clock[thread.core]
        for tid in thread.joiners:
            joiner = self.threads[tid]
            if joiner.state == BLOCKED:
                if observer is not None:
                    observer.on_hb_edge(thread.tid, tid)
                extra = self.runtime.on_sync_acquired(self, joiner, None,
                                                      "join")
                self._wake(joiner, now, extra)
        thread.joiners = []

    def _wake(self, thread, at_time, extra=0):
        thread.blocked_on = None
        self._schedule(thread, at_time + extra)

    def _run_ticks(self):
        now = self.machine.now
        while self._next_tick is not None and now >= self._next_tick:
            self.runtime.on_tick(self, self._next_tick)
            self._next_tick += self.runtime.tick_cycles

    # ------------------------------------------------------------------
    # op execution
    # ------------------------------------------------------------------
    def _exec_region_begin(self, thread, op):
        thread.region_stack.append((op.kind, op.ordering))
        cost = self.runtime.on_region_begin(self, thread, op.kind,
                                            op.ordering)
        return cost, None, False

    def _exec_region_end(self, thread, op):
        if not thread.region_stack or \
                thread.region_stack[-1][0] != op.kind:
            raise SimulationError(
                f"unbalanced region end {op.kind} in {thread}")
        thread.region_stack.pop()
        cost = self.runtime.on_region_end(self, thread, op.kind)
        return cost, None, False

    def _exec_fence(self, thread, op):
        if self._observer is not None:
            self._observer.on_fence(thread.tid)
        if self._rt_override:
            # LASER's TSO store buffer drains at a fence (and charges
            # the drain itself), as at an atomic
            override = self.runtime.exec_access_override(self, thread, op)
            if override is not None:
                return override[0], override[1], False
        return self.costs.fence, None, False

    def _exec_malloc(self, thread, op):
        addr, cost = self.allocator.malloc(thread.tid, op.size, op.align)
        return cost, addr, False

    def _exec_free(self, thread, op):
        cost = self.allocator.free(thread.tid, op.addr)
        return cost, None, False

    def _exec_thread_create(self, thread, op):
        child = self._create_thread(op.body, op.name, thread.process)
        self.runtime.on_thread_created(self, child)
        if self._observer is not None:
            self._observer.on_thread_create(thread.tid, child.tid)
        cost = 16_000                      # pthread_create
        start = self.machine.core_clock[thread.core] + cost
        self._schedule(child, start)
        return cost, child.tid, False

    def _exec_thread_join(self, thread, op):
        target = self.threads[op.tid]
        if target.state == DONE:
            if self._observer is not None:
                self._observer.on_hb_edge(target.tid, thread.tid)
            extra = self.runtime.on_sync_acquired(self, thread, None,
                                                  "join")
            return 2_000 + extra, None, False
        target.joiners.append(thread.tid)
        thread.state = BLOCKED
        thread.blocked_on = ("join", op.tid)
        return 0, None, True

    # ------------------------------------------------------------------
    # data accesses
    # ------------------------------------------------------------------
    def _exec_load_store(self, thread, op):
        """One plain load or store.

        The translation-cache lane runs inline; the runtime's
        ``translate`` runs only for an access its process routes
        (:attr:`~repro.engine.thread.SimProcess.routed`): a volatile or
        in-region one (:meth:`~repro.engine.thread.SimThread.routes`).
        """
        is_write = op.__class__ is O.Store
        addr = op.addr
        width = op.width
        if self._observer is not None:
            self._observer.on_access(thread.tid, op.site, addr, width,
                                     is_write, op.volatile)
        if self._rt_override:
            override = self.runtime.exec_access_override(self, thread, op)
            if override is not None:
                return override[0], override[1], False
        process = thread.process
        if process.routed and thread.routes(op):
            translation = self.runtime.translate(self, thread, op, addr,
                                                 width, is_write)
            pa = translation.pa
            cost = translation.cost
        else:
            entry = process.aspace._tcache.get(addr >> 12)
            if entry is not None and addr + width <= entry[1]:
                pa = addr + entry[0]
                cost = 0
            else:
                translation = process.aspace.translate(addr, width,
                                                       is_write)
                pa = translation.pa
                cost = translation.cost
        if is_write:
            thread.stores += 1
            value = op.value
        else:
            thread.loads += 1
            value = None
        traffic, value = self.machine.mem_access(
            thread.core, thread.tid, op.site.pc, addr, pa, width, is_write,
            value)
        return cost + traffic, value, False

    def _exec_access(self, thread, op):
        """One atomic access: a load, a store or an RMW.

        Its process's PTSB, if routed
        (:attr:`~repro.engine.thread.SimProcess.routed`), is always
        bypassed through the runtime's ``translate``; otherwise the
        translation-cache lane runs inline.
        """
        cls = op.__class__
        is_rmw = cls is O.AtomicRMW
        is_write = is_rmw or cls is O.AtomicStore
        addr = op.addr
        width = op.width
        observer = self._observer
        if observer is not None:
            observer.on_atomic(thread.tid, op.site, addr, width, is_write,
                               is_rmw, op.ordering)
        if self._rt_override:
            override = self.runtime.exec_access_override(self, thread, op)
            if override is not None:
                return override[0], override[1], False
        process = thread.process
        if process.routed:
            translation = self.runtime.translate(self, thread, op, addr,
                                                 width, is_write)
            pa = translation.pa
            cost = translation.cost
        else:
            entry = process.aspace._tcache.get(addr >> 12)
            if entry is not None and addr + width <= entry[1]:
                pa = addr + entry[0]
                cost = 0
            else:
                translation = process.aspace.translate(addr, width,
                                                       is_write)
                pa = translation.pa
                cost = translation.cost
        machine = self.machine
        pc = op.site.pc
        thread.atomics += 1
        if is_rmw:
            old = machine.physmem.read_int(pa, width)
            if op.op == "add":
                new = old + op.operand
            elif op.op == "xchg":
                new = op.operand
            elif op.op == "cas":
                new = op.operand if old == op.expected else old
            else:
                raise SimulationError(f"unknown RMW op {op.op!r}")
            traffic, _ = machine.mem_access(
                thread.core, thread.tid, pc, addr, pa, width, True, new)
            return cost + traffic + self.costs.atomic_extra, old, False
        if is_write and op.ordering == O.SEQ_CST:
            cost += self.costs.fence
        traffic, value = machine.mem_access(
            thread.core, thread.tid, pc, addr, pa, width, is_write,
            op.value if is_write else None)
        return cost + traffic, value, False

    # ------------------------------------------------------------------
    # batched ops
    # ------------------------------------------------------------------
    def _exec_seq_op(self, thread, op):
        """Begin an :class:`~repro.isa.ops.AccessRun`,
        :class:`~repro.isa.ops.RmwSeq` or :class:`~repro.isa.ops.StoreSeq`.

        The op executes sub-op by sub-op (:meth:`_run_seq`): each load
        and store with the single-access semantics of
        :meth:`_exec_load_store` — observer callbacks, runtime hooks,
        coherence — and each compute step as pure clock advance.  It
        yields the core at exactly the points where the unbatched loop
        would have context-switched: another runnable thread's ready
        time reaching this core's clock, a pending stop-the-world, a
        due runtime tick, or the cycle budget (under a schedule policy,
        after every sub-op).  The continuation lives on the thread
        (``run_op``/``run_plan``/``run_index``/``run_values``), so
        resuming does not touch the workload generator.

        The op is decoded here, once: ``run_plan`` is the tuple
        ``(is_rmw, is_run, width, nphases, compute, site0, site1,
        addrs, base, stride, write0, value, values, delta, deltas,
        mask, total)``.  Phase 0 is an RMW's load (``site0`` at
        ``addrs[element]``) or a run's or store sequence's access
        (``site0`` at ``base + element * stride``, a store when
        ``write0``, of ``value`` or ``values[element]``); an RMW's
        phase 1 stores at ``site1`` the carried load plus ``delta`` or
        ``deltas[element]``, masked to the width; the last phase of an
        op that computes charges ``compute``.  ``total`` counts the
        sub-ops.
        """
        cls = op.__class__
        if cls is O.RmwSeq:
            deltas = op.deltas
            delta = None
            if isinstance(deltas, int):
                delta, deltas = deltas, None
            nphases = 3 if op.compute else 2
            thread.run_plan = (
                True, False, op.width, nphases, op.compute, op.load_site,
                op.store_site, op.addrs, 0, 0, False, None, None, delta,
                deltas, (1 << (8 * op.width)) - 1, len(op.addrs) * nphases)
            thread.run_values = None
        elif cls is O.AccessRun:
            # reject malformed shapes before a single access executes,
            # so the run fails with a typed error at the cycle it was
            # issued
            validate_run(op)
            thread.run_plan = (
                False, True, op.width, 1, 0, op.site, None, None, op.addr,
                op.stride, op.is_write, op.value, None, None, None, 0,
                op.count)
            thread.run_values = None if op.is_write else []
        else:
            nphases = 2 if op.compute else 1
            thread.run_plan = (
                False, False, op.width, nphases, op.compute, op.site, None,
                None, op.addr, 0, True, None, op.values, None, None, 0,
                len(op.values) * nphases)
            thread.run_values = None
        thread.run_op = op
        thread.run_index = 0
        self._run_seq(thread)
        return 0, None, True

    def _run_seq(self, thread):
        """Run ``thread``'s batched op from ``run_index`` until it
        ends or the thread must yield the core.

        Sub-op ``i`` is phase ``i % nphases`` of element ``i //
        nphases``.  An RMW element's phases are load, store and (when
        the op computes) compute; a store sequence's are store and
        compute; an AccessRun's element is its one access, at ``addr +
        element * stride``.  ``run_index`` counts sub-ops, so a break
        can land between an element's load and its store.  The phases
        come from the op, never from its lowered shape.  Each dispatch
        and band switch unpacks the thread's ``run_plan``, the op
        decoded once by :meth:`_exec_seq_op`, and reads the
        process-side fields (address space, translation cache,
        whether the op is routed) afresh: a stop-the-world between two
        dispatches may have re-homed the thread.

        Each dispatch computes the first clock at which a break test
        could fire: the next tick, the cycle budget and the ready-heap
        head's ready time, or every clock when a tick or the budget is
        already due.  Below that bound, with no stop-the-world pending,
        the next sub-op runs at once; at or past it the ordered ladder
        runs: stop-the-world, tick, budget, then the head.

        A thread that yields only because the earliest live ready-heap
        entry is due hands the core to that entry's thread without a
        trip through the scheduling loop, when that thread is itself
        mid-run and the break is no lockstep hint: this is the band.
        The routine then makes the loop's next dispatch itself.  It
        reschedules the thread with the next ``seq``, replaces the head
        on the ready heap with it, applies the head's dispatch prologue
        (core clock up to its ready time, plus its pending penalty) and
        continues with the head.  Between those two dispatches the loop
        would run no tick, no budget error, no stop-the-world and no
        vector window, so the band makes the same calls in the same
        order at the same clocks.

        A break after a fast hit in a sequence is a lockstep hint only
        when :meth:`~repro.engine.vector.VectorExecutor.window_due` says
        the kernel would try a window now (it keeps the kernel's
        backoff); the break then returns to the loop, which offers the
        window.  Every break that is no band switch returns to the
        loop, and under a schedule policy there is no band.
        """
        machine = self.machine
        core_clock = machine.core_clock
        heap = self._heap
        threads = self.threads
        max_cycles = self.max_cycles
        next_tick = self._next_tick
        # requests append to this list, and only the scheduling loop
        # replaces it (when it runs them), so the binding stays live
        stop_world = self._stop_world
        # a head-ready break after a fast hit is the round-robin steady
        # state the lockstep kernel extrapolates; it runs sequences only,
        # and says when it would try a window
        seq_vector = self._vector
        load_hit = self.costs.load_hit
        store_hit = self.costs.store_hit
        observer = self._observer
        runtime = self.runtime
        # LASER's store buffer inspects single Load/Store ops: build one
        # per access only when that hook is live
        override = (runtime.exec_access_override if self._rt_override
                    else None)
        mem_access = machine.mem_access
        # under a schedule policy every access is a decision point
        band = self.policy is None
        # machine.now, read once: while a thread runs only its own
        # core's clock moves, and it only grows; a band switch leaves
        # the clock it moved below the next tick and within the budget
        # (the ladder tests both before the head), so max(clock, now0)
        # meets the tick and budget tests exactly as machine.now would
        now0 = max(core_clock)
        while True:
            op = thread.run_op
            (is_rmw, is_run, width, nphases, compute, site0, site1, addrs,
             base, stride, write0, value, values, delta, deltas, mask,
             total) = thread.run_plan
            core = thread.core
            tid = thread.tid
            vector = None if is_run else seq_vector
            process = thread.process
            aspace = process.aspace
            # a bound object, not a snapshot: _tcache is mutated in
            # place (cleared, never reassigned) so the binding stays live
            tcache = aspace._tcache
            routed = process.routed and thread.routes(op)
            # an RMW's carried load, or an AccessRun's loads so far
            carried = thread.run_values
            # whether the latest access was hit-priced
            fastish = False
            index = thread.run_index
            if band:
                # nothing is pushed to or popped from the ready heap
                # while the thread runs, so the earliest other ready
                # time is a constant: drop stale heap entries once and
                # peek once, exactly as the scheduling loop would have
                # before each op
                while heap:
                    ready_time, seq, next_tid = heap[0]
                    waiter = threads[next_tid]
                    if waiter.state == READY and waiter.seq == seq:
                        break
                    heapq.heappop(heap)
                head_ready = heap[0][0] if heap else None
            else:
                # every clock is past this bound, so the thread yields
                # after each sub-op
                head_ready = 0
            # below this clock no test of the ladder can fire
            if now0 > max_cycles or (next_tick is not None
                                     and now0 >= next_tick):
                bound = 0
            else:
                bound = max_cycles
                if next_tick is not None and next_tick < bound:
                    bound = next_tick
                if head_ready is not None and head_ready < bound:
                    bound = head_ready
            clock = core_clock[core]
            head = None
            while True:
                element, phase = divmod(index, nphases)
                if phase == 0:
                    site = site0
                    if is_rmw:
                        addr = addrs[element]
                        is_write = False
                    else:
                        addr = base + element * stride
                        is_write = write0
                        if values is not None:
                            value = values[element]
                elif phase == 1 and is_rmw:
                    site = site1
                    addr = addrs[element]
                    is_write = True
                    value = (carried + (delta if deltas is None
                                        else deltas[element])) & mask
                else:
                    site = None
                if site is None:
                    cost = compute
                else:
                    if observer is not None:
                        observer.on_access(tid, site, addr, width,
                                           is_write, op.volatile)
                    handled = None
                    if override is not None:
                        handled = override(
                            self, thread,
                            O.Store(site, addr, value, width, op.volatile)
                            if is_write else
                            O.Load(site, addr, width, op.volatile))
                    if handled is not None:
                        cost, loaded = handled
                    else:
                        if routed:
                            translation = runtime.translate(
                                self, thread, op, addr, width, is_write)
                            pa = translation.pa
                            cost = translation.cost
                        else:
                            entry = tcache.get(addr >> 12)
                            if entry is not None \
                                    and addr + width <= entry[1]:
                                pa = addr + entry[0]
                                cost = 0
                            else:
                                translation = aspace.translate(
                                    addr, width, is_write)
                                pa = translation.pa
                                cost = translation.cost
                        traffic, loaded = mem_access(
                            core, tid, site.pc, addr, pa, width, is_write,
                            value)
                        cost += traffic
                        if is_write:
                            thread.stores += 1
                        else:
                            thread.loads += 1
                    fastish = cost <= (store_hit if is_write else load_hit)
                    if is_rmw:
                        # an RMW carries its loaded value to its store
                        carried = loaded
                    elif not is_write:
                        # an AccessRun's loads go back to the generator
                        carried.append(loaded)
                # handlers may advance the core clock internally (e.g. a
                # store-buffer drain), so add the returned cost on top of
                # the live clock exactly as a dispatch does
                clock = core_clock[core] + cost
                core_clock[core] = clock
                index += 1
                if index >= total:
                    break
                if clock < bound and not stop_world:
                    continue
                # --- would the serial engine have switched away here? ---
                if stop_world:
                    break
                now = clock if clock > now0 else now0
                if next_tick is not None and now >= next_tick:
                    break
                if now > max_cycles:
                    break
                if head_ready is not None and head_ready <= clock:
                    if band:
                        # heap[0] is still the live entry peeked above
                        head = threads[heap[0][2]]
                        if head.run_op is None:
                            head = None
                        elif fastish and vector is not None \
                                and vector.window_due(head):
                            # the loop offers the lockstep kernel a
                            # window instead
                            vector.hint = True
                            head = None
                    break
            thread.run_index = index
            thread.run_values = carried
            if head is None:
                if index >= total:
                    thread.run_op = None
                    thread.run_plan = None
                    thread.pending_value = carried if is_run else None
                    thread.run_values = None
                self._schedule(thread, clock)
                return
            # the band: the loop's next dispatch, made here (a running
            # thread is READY already)
            thread.ready_time = clock
            self._seq += 1
            thread.seq = self._seq
            heapq.heapreplace(heap, (clock, self._seq, tid))
            thread = head
            core = thread.core
            clock = core_clock[core]
            if head_ready > clock:
                clock = head_ready
            core_clock[core] = clock + thread.pending_penalty
            thread.pending_penalty = 0

    def _exec_bulk(self, thread, op):
        """Analytic streaming over a large range (native-input scale)."""
        aspace = thread.process.aspace
        mapping = aspace.mapping_at(op.addr)
        if mapping is None or op.addr + op.nbytes > mapping.end:
            raise SimulationError(
                f"bulk touch [{op.addr:#x}+{op.nbytes:#x}] outside mapping")
        faulted = getattr(mapping, "bulk_pages", None)
        if faulted is None:
            faulted = set()
            mapping.bulk_pages = faulted
        first = (op.addr - mapping.start) // mapping.page_size
        last = (op.addr + op.nbytes - 1 - mapping.start) \
            // mapping.page_size
        fault_pages = 0
        for index in range(first, last + 1):
            if index not in faulted:
                faulted.add(index)
                fault_pages += 1
        mapping.bulk_watermark = len(faulted) * mapping.page_size
        per_fault = (self.costs.fault_shared_file
                     if mapping.backing.file_backed else
                     self.costs.fault_anon)
        kind = ("shared_file" if mapping.backing.file_backed else "anon")
        aspace.fault_count[kind] += fault_pages
        lines = op.nbytes // 64
        cost = fault_pages * per_fault + lines * self.costs.stream_per_line
        thread.loads += 1
        return cost, None, False

    # ------------------------------------------------------------------
    # locks and barriers
    # ------------------------------------------------------------------
    def _sync_traffic(self, thread, obj, is_write=True):
        """Coherence traffic on the sync object's hot word."""
        hot = obj.hot_addr
        pa = thread.process.aspace.shared_pa(hot)
        cost, _ = self.machine.mem_access(
            thread.core, thread.tid, self._lock_site.pc, hot, pa,
            obj.width, is_write, 1 if is_write else None)
        return cost

    def _exec_lock(self, thread, op):
        mutex = op.mutex
        thread.sync_ops += 1
        mutex.acquire_count += 1
        cost = self.costs.mutex_fast
        cost += self.runtime.sync_cost_extra(self, thread, mutex)
        cost += self._sync_traffic(thread, mutex)
        if mutex.owner_tid is None:
            mutex.owner_tid = thread.tid
            if self._observer is not None:
                self._observer.on_acquire(thread.tid, mutex)
            cost += self.runtime.on_sync_acquired(self, thread, mutex,
                                                  "lock")
            return cost, None, False
        mutex.contended_count += 1
        mutex.waiters.append(thread.tid)
        thread.state = BLOCKED
        thread.blocked_on = mutex
        self.machine.advance(thread.core, cost + self.costs.mutex_slow)
        return 0, None, True

    def _exec_unlock(self, thread, op):
        mutex = op.mutex
        if mutex.owner_tid != thread.tid:
            raise SimulationError(
                f"t{thread.tid} unlocking {mutex.name or mutex.mid} "
                f"owned by {mutex.owner_tid}")
        thread.sync_ops += 1
        cost = self.costs.mutex_fast
        cost += self.runtime.sync_cost_extra(self, thread, mutex)
        cost += self.runtime.on_sync_release(self, thread, mutex, "unlock")
        if self._observer is not None:
            self._observer.on_release(thread.tid, mutex)
        cost += self._sync_traffic(thread, mutex)
        self._hand_off(mutex, self.machine.core_clock[thread.core] + cost)
        return cost, None, False

    def _hand_off(self, mutex, release_time):
        """Release ``mutex`` at ``release_time``: its first waiter, if
        any, acquires it (with the runtime's acquire hook) and wakes."""
        if not mutex.waiters:
            mutex.owner_tid = None
            return
        next_tid = mutex.waiters.pop(0)
        mutex.owner_tid = next_tid
        woken = self.threads[next_tid]
        if self._observer is not None:
            self._observer.on_acquire(next_tid, mutex)
        extra = self.runtime.on_sync_acquired(self, woken, mutex, "lock")
        self._wake(woken, release_time, extra)

    def _exec_barrier(self, thread, op):
        barrier = op.barrier
        thread.sync_ops += 1
        barrier.wait_count += 1
        cost = self.costs.barrier_op
        cost += self.runtime.sync_cost_extra(self, thread, barrier)
        cost += self.runtime.on_sync_release(self, thread, barrier,
                                             "barrier")
        cost += self._sync_traffic(thread, barrier)
        arrive = self.machine.core_clock[thread.core] + cost
        barrier.arrived.append((thread.tid, arrive))
        if len(barrier.arrived) < barrier.parties:
            thread.state = BLOCKED
            thread.blocked_on = barrier
            self.machine.advance(thread.core, cost)
            return 0, None, True
        release = max(at for _, at in barrier.arrived)
        if self._observer is not None:
            self._observer.on_barrier([tid for tid, _ in barrier.arrived])
        barrier.generation += 1
        arrivals, barrier.arrived = barrier.arrived, []
        for tid, _ in arrivals:
            if tid == thread.tid:
                continue
            waiter = self.threads[tid]
            extra = self.runtime.on_sync_acquired(self, waiter, barrier,
                                                  "barrier")
            self._wake(waiter, release, extra)
        extra = self.runtime.on_sync_acquired(self, thread, barrier,
                                              "barrier")
        self.machine.core_clock[thread.core] = release + extra
        self._schedule(thread, release + extra)
        # value already charged via explicit clock writes
        return 0, None, True

    def _exec_cond_wait(self, thread, op):
        """Atomically release the mutex and sleep on the condvar; the
        signaller hands the mutex back before the waiter resumes."""
        condvar = op.condvar
        mutex = op.mutex
        if mutex.owner_tid != thread.tid:
            raise SimulationError(
                f"t{thread.tid} cond_wait without holding the mutex")
        thread.sync_ops += 1
        cost = self.costs.mutex_slow
        cost += self.runtime.sync_cost_extra(self, thread, condvar)
        cost += self.runtime.on_sync_release(self, thread, condvar,
                                             "cond_wait")
        if self._observer is not None:
            self._observer.on_release(thread.tid, mutex)
        cost += self._sync_traffic(thread, condvar)
        self._hand_off(mutex, self.machine.core_clock[thread.core] + cost)
        condvar.waiters.append((thread.tid, mutex))
        thread.state = BLOCKED
        thread.blocked_on = condvar
        self.machine.advance(thread.core, cost)
        return 0, None, True

    def _exec_cond_signal(self, thread, op):
        condvar = op.condvar
        thread.sync_ops += 1
        cost = self.costs.mutex_fast
        cost += self.runtime.sync_cost_extra(self, thread, condvar)
        cost += self._sync_traffic(thread, condvar)
        signal_time = self.machine.core_clock[thread.core] + cost
        observer = self._observer
        count = len(condvar.waiters) if op.broadcast else 1
        for _ in range(min(count, len(condvar.waiters))):
            tid, mutex = condvar.waiters.pop(0)
            waiter = self.threads[tid]
            if observer is not None:
                observer.on_hb_edge(thread.tid, tid)
            if mutex.owner_tid is None:
                mutex.owner_tid = tid
                if observer is not None:
                    observer.on_acquire(tid, mutex)
                extra = self.runtime.on_sync_acquired(
                    self, waiter, mutex, "lock")
                extra += self.runtime.on_sync_acquired(
                    self, waiter, condvar, "cond_wake")
                self._wake(waiter, signal_time, extra)
            else:
                # must re-acquire: queue on the mutex; its release path
                # will wake and run the acquire hooks
                waiter.blocked_on = mutex
                mutex.waiters.append(tid)
        return cost, None, False

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _fault_counts(self):
        """Page-fault totals by kind, summed over every process."""
        faults = {"anon": 0, "shared_file": 0, "cow": 0}
        for proc in self.processes.values():
            for kind, count in proc.aspace.fault_count.items():
                faults[kind] += count
        return faults

    def _memory_by_category(self):
        """Memory footprint by category (application + runtime)."""
        memory = {"application": self._app_memory_bytes()}
        memory.update(self.runtime.memory_report(self))
        return memory

    def metrics(self, registry=None):
        """Collect the run's metrics into a
        :class:`~repro.obs.metrics.MetricsRegistry`.

        One deterministic, labeled namespace over the machine
        (HITM/clock counters), the engine (ops, threads, faults,
        memory), and the active runtime (its ``report()`` as
        ``runtime.*`` gauges, plus its ``fill_metrics`` hook).  Purely
        end-of-run reads — collecting metrics never perturbs simulated
        state, and the snapshot is byte-identical for identical
        simulations regardless of ``REPRO_JOBS``.
        """
        from repro.obs import MetricsRegistry
        if registry is None:
            registry = MetricsRegistry()
        self.machine.fill_metrics(registry)
        threads = self.threads.values()
        registry.gauge("engine.threads").set(len(self.threads))
        registry.gauge("engine.processes").set(len(self.processes))
        registry.counter("engine.loads").inc(
            sum(t.loads for t in threads))
        registry.counter("engine.stores").inc(
            sum(t.stores for t in threads))
        registry.counter("engine.atomics").inc(
            sum(t.atomics for t in threads))
        registry.counter("engine.sync_ops").inc(
            sum(t.sync_ops for t in threads))
        registry.counter("engine.ops").inc(
            sum(t.ops for t in threads))
        for kind, count in sorted(self._fault_counts().items()):
            registry.counter("vm.faults", kind=kind).inc(count)
        for category, nbytes in sorted(
                self._memory_by_category().items()):
            registry.gauge("memory.bytes", category=category).set(nbytes)
        registry.gauge("alloc.bytes").set(
            self.allocator.allocated_bytes)
        vector = self._vector
        if vector is not None:
            registry.counter("vector.batched_ops").inc(
                vector.batched_ops)
            registry.counter("vector.batches").inc(vector.batches)
            registry.counter("vector.lockstep_batches").inc(
                vector.lockstep_batches)
            registry.counter("vector.compile_hits").inc(
                vector.compiler.hits)
            registry.counter("vector.compile_misses").inc(
                vector.compiler.misses)
        runtime = self.runtime
        registry.ingest("runtime", runtime.report(self),
                        system=runtime.name)
        runtime.fill_metrics(self, registry)
        return registry

    def _build_result(self):
        machine = self.machine
        faults = self._fault_counts()
        threads = self.threads.values()
        memory = self._memory_by_category()
        validated = True
        error = ""
        if self.program.validate is not None:
            try:
                self.program.validate(self.program.env, self)
            except AssertionError as exc:
                validated = False
                error = str(exc)
        return RunResult(
            program=self.program.name,
            system=self.runtime.name,
            cycles=machine.now,
            seconds=machine.elapsed_seconds(),
            hitm_loads=machine.directory.hitm_load_count,
            hitm_stores=machine.directory.hitm_store_count,
            sync_ops=sum(t.sync_ops for t in threads),
            data_ops=sum(t.loads + t.stores + t.atomics for t in threads),
            faults=faults,
            alloc_bytes=self.allocator.allocated_bytes,
            memory_bytes=memory,
            runtime_report=self.runtime.report(self),
            env=dict(self.program.env),
            validated=validated,
            error=error,
        )

    def _app_memory_bytes(self):
        """Baseline application footprint: allocator arenas plus the
        declared native-input streaming working set."""
        touched = self.allocator.arena_bytes
        for mapping in self.root_process.aspace.mappings():
            touched += getattr(mapping, "bulk_watermark", 0)
        return max(touched, self.program.features.footprint_bytes)

    def read_memory(self, va, width, aspace=None):
        """Debug/validation read through the always-shared view."""
        aspace = aspace or self.root_process.aspace
        return self.machine.physmem.read_int(aspace.shared_pa(va), width)
