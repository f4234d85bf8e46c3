"""The vector executor: lockstep windows over sequence ops.

One kernel, and it is *exact* — every simulated quantity (per-core
clocks, directory state and counters, physical memory, HITM totals,
metrics) ends byte-identical to the serial interpreter.

The scheduling loop calls :meth:`VectorExecutor.try_lockstep` when a
:class:`~repro.isa.ops.RmwSeq` / :class:`~repro.isa.ops.StoreSeq`
dispatch ends on another mid-run thread's ready time right after a
fast hit, and :meth:`VectorExecutor.window_due` (the backoff) says a
window is worth trying; every other such break is the band's
(``Engine._run_seq``).
Sequence sub-op costs cycle through load/store/compute phases, so the
steady state of a band of such threads is not a fixed round-robin:
threads drift through phase offsets and each dispatch runs a variable
number of sub-ops.  But a mid-run sequence dispatch depends *only* on
scheduler arithmetic — pop the earliest ``(ready_time, seq)`` thread,
execute sub-ops until its clock reaches the next ready time,
re-enqueue — as long as every access stays a fast hit on a line the
thread owns.  The kernel replays exactly that arithmetic in miniature
over the band, with no simulated state touched, then applies each
thread's replayed sub-op count wholesale (:meth:`VectorExecutor.advance`)
and re-enqueues the threads in their replayed dispatch order.  The
per-shape constants it reads come from the
:class:`~repro.engine.vector.compiler.RunCompiler`.

``AccessRun`` ops always run on the serial interpreter.

Fallback boundaries (where a window ends and the serial path runs) are
the contract in docs/ARCHITECTURE.md: sync ops and region boundaries
(separate ops, never in a band), cross-thread contention on a line
(owner micro-cache probe fails), PTSB commits, runtime ticks (a bound
on every window, not a gate), runs a process routes around its PTSB
(:attr:`~repro.engine.thread.SimProcess.routed`; declined run by run;
:meth:`~repro.engine.thread.SimThread.routes`), schedule-policy
decision points (policy mode disables the executor), and LASER's
access override and active tracer/sanitizer/fault hooks (eligibility
gate in ``Engine._build_vector``).
"""

import heapq

from repro.engine.thread import READY
from repro.engine.vector.compiler import RunCompiler
from repro.isa.ops import AccessRun, RmwSeq, StoreSeq
from repro.sim.cache_batch import apply_fast_mixed

#: Smallest lockstep window worth committing, in sub-ops.
MIN_LOCKSTEP = 16
#: Smallest committed window that pays for its attempt, in sub-ops: an
#: attempt costs about as much as 30-40 serial sub-ops, so a shorter
#: window backs off as a declined one does.
LOCKSTEP_PAYOFF = 64


class VectorExecutor:
    """Per-engine vector execution state and the lockstep kernel."""

    def __init__(self, engine):
        self.engine = engine
        self.compiler = RunCompiler(engine.costs)
        #: Sub-ops advanced by committed windows.
        self.batched_ops = 0
        #: Per-thread applies (:meth:`advance` calls) and committed
        #: windows.
        self.batches = 0
        self.lockstep_batches = 0
        #: Set by the engine when a sequence dispatch ended on another
        #: mid-run thread's ready time after a fast hit and
        #: :meth:`window_due` agreed — the scheduling loop then tries a
        #: window.
        self.hint = False
        #: After a declined window: ``(thread, op, run_index)`` the
        #: rejected thread must reach before re-attempting.
        self._seq_block = None
        #: Exponential backoff on contended phases: consecutive
        #: declines suppress the next ``2**streak`` offers (capped), so
        #: heavily contended stretches pay O(log n) attempt setups
        #: instead of one per contended element.
        self._seq_streak = 0
        self._seq_cool = 0
        observer = engine._observer
        self._switch = (observer.on_vector_switch
                        if observer is not None else None)
        # NUMA decline: on multi-socket machines a fast-owned line
        # homed on a remote socket is left to the serial path, which
        # charges the socket-aware costs; on single-socket machines
        # every probe below is a single None test.
        machine = engine.machine
        self._numa_active = machine.topology.sockets > 1
        self._home_nodes = (machine.physmem._home_nodes
                            if self._numa_active else {})
        self._socket_map = (machine.topology.socket_map()
                            if self._numa_active else ())
        #: Fast-path probes declined because the line was remote-homed.
        self.numa_declines = 0

    def _numa_remote(self, line_pa, core):
        """Whether ``line_pa`` is homed on a socket other than
        ``core``'s (multi-socket machines only; unhomed lines are
        local by definition — they have never been filled)."""
        home = self._home_nodes.get(line_pa >> 12)
        if home is not None and home != self._socket_map[core]:
            self.numa_declines += 1
            return True
        return False

    # ------------------------------------------------------------------
    def window_due(self, head):
        """Whether :meth:`try_lockstep` should try a window now, asked
        by ``Engine._run_seq`` at a break after a fast hit whose next
        dispatch is ``head``, a thread mid-run.

        An ``AccessRun`` head gets no window.  Otherwise this is where
        the backoff lives: a cool-down after a declined window, or after
        a committed one shorter than :data:`LOCKSTEP_PAYOFF` sub-ops,
        skips the next ``2**streak`` offers (only a window at or over
        the payoff clears the streak), and a declined window stays
        declined until the thread it rejected progresses past the
        rejection point serially.  A ``False`` leaves the break to the
        band.
        """
        if head.run_op.__class__ is AccessRun:
            return False
        if self._seq_cool > 0:
            self._seq_cool -= 1
            return False
        blk = self._seq_block
        if blk is not None:
            t, op, idx_needed = blk
            if t.run_op is op and t.run_index < idx_needed:
                self._seq_decline()
                return False
            self._seq_block = None
        return True

    def try_lockstep(self):
        """Extrapolate one window of sequence dispatches over the band
        of READY threads, or decline with no state touched.

        The band is the run of earliest-ready threads that sit mid-run
        in a sequence op on their own core with no pending penalty and
        no routed accesses.  The window ends — leaving the remainder to
        the serial path — strictly *before* any dispatch that would
        leave the verified fast-hit prefix (a lazy per-element
        ownership walk), execute a run's final sub-op (the serial
        epilogue closes runs), cross the cycle budget, reach the next
        runtime tick, or reach an out-of-band thread's ready time
        (whose pop would break the band-only replay).  Rejected
        dispatches re-run natively, so every committed prefix is a
        serial-reachable state.

        A runtime tick bounds the window: the scheduling loop calls
        this before it runs a due tick, so no window starts while one
        is due (``machine.now >= next_tick``), and no clock in a window
        may reach the next tick, which the serial loop would fire only
        after the window.
        """
        engine = self.engine
        if engine._stop_world:
            return
        core_clock = engine.machine.core_clock
        next_tick = engine._next_tick
        if next_tick is not None and max(core_clock) >= next_tick:
            return
        ready = [t for t in engine.threads.values() if t.state == READY]
        if len(ready) < 2:
            return
        ready.sort(key=lambda t: t.ready_time)
        first_op = ready[0].run_op
        if first_op is None or first_op.__class__ is AccessRun:
            return
        max_cycles = engine.max_cycles
        band = []
        cores = set()
        hard_stop = max_cycles
        if next_tick is not None and next_tick - 1 < hard_stop:
            hard_stop = next_tick - 1
        for t in ready:
            op = t.run_op
            cls = op.__class__ if op is not None else None
            if ((cls is RmwSeq or cls is StoreSeq)
                    and not t.pending_penalty
                    and t.core not in cores
                    and t.ready_time == core_clock[t.core]
                    and not t.routes(op)):
                band.append(t)
                cores.add(t.core)
            else:
                # this thread and everything after it (``ready`` is
                # rt-sorted) are outsiders: none may be popped during
                # the window, so no band clock may reach its ready time
                if t.ready_time - 1 < hard_stop:
                    hard_stop = t.ready_time - 1
                break
        if len(band) < 2:
            self._seq_decline()
            return
        for c in range(len(core_clock)):
            # a non-band core past the budget would fire the serial
            # ladder's budget break mid-window (cannot happen in a
            # live run; checked so the replay never assumes it)
            if c not in cores and core_clock[c] > max_cycles:
                self._seq_decline()
                return

        # rt ties in ``ready`` are not seq-ordered; the replay heap
        # must break them exactly like the real one
        band.sort(key=lambda t: (t.ready_time, t.seq))
        lookup = self.compiler.lookup
        fast = engine.machine.directory._fast
        shapes = []
        plans = []      # (phase costs, phases per element, run_index)
        tcaches = []
        verified = []   # sub-ops from run_index proven fast-path
        welems = []     # next element the lazy walk would probe
        exhausted = []  # lazy walk hit an unsafe element (or is moot)
        needs = []      # hard sub-op bound: never the run's final one
        for t in band:
            op = t.run_op
            shape = lookup(op)
            costs = shape.costs
            nphases = len(costs)
            idx = t.run_index
            need = shape.count * nphases - idx - 1
            if need < 0:
                need = 0
            p0 = idx % nphases
            ver = 0
            wel = idx // nphases
            exh = False
            tcache = t.process.aspace._tcache
            if not shape.is_rmw:
                # constant address: one probe settles the whole run
                if p0 != 0:
                    ver = nphases - p0   # only this compute is left
                if self._addr_safe(op.addr, op.width, tcache, fast,
                                   t.core):
                    ver = need
                exh = True
            elif p0 != 0:
                # mid-element start: the pending store (phase 1) still
                # probes the line; a pending compute (phase 2) doesn't
                if p0 == 1 and not self._addr_safe(
                        op.addrs[wel], op.width, tcache, fast, t.core):
                    exh = True
                else:
                    ver = nphases - p0
                    wel += 1
            if ver > need:
                ver = need
            shapes.append(shape)
            plans.append((costs, nphases, idx))
            tcaches.append(tcache)
            verified.append(ver)
            welems.append(wel)
            exhausted.append(exh)
            needs.append(need)

        # --- virtual replay: heap arithmetic only, no state ---
        nthreads = len(band)
        vheap = [(t.ready_time, t.seq, i) for i, t in enumerate(band)]
        heapq.heapify(vheap)
        vseq = max(t.seq for t in band) + 1
        executed = [0] * nthreads
        finals = [t.ready_time for t in band]
        last_d = [0] * nthreads
        dispatches = 0
        while True:
            rt, sq, i = vheap[0]
            costs, nphases, idx0 = plans[i]
            done = executed[i]
            idx = idx0 + done
            heapq.heappop(vheap)
            head = vheap[0][0]
            # tentatively run the dispatch; reject it — ending the
            # window at the boundary before it — if it would cross
            # any window bound
            clock = rt
            j = 0
            ok = True
            ver = verified[i]
            need = needs[i]
            while True:
                if done + j >= ver:
                    # extend the verified prefix lazily, one element
                    # at a time, so declined windows stay cheap
                    if exhausted[i] or ver >= need:
                        ok = False
                        break
                    op = band[i].run_op
                    if self._addr_safe(op.addrs[welems[i]], op.width,
                                       tcaches[i], fast,
                                       band[i].core):
                        welems[i] += 1
                        ver += nphases
                        if ver > need:
                            ver = need
                        verified[i] = ver
                        continue
                    exhausted[i] = True
                    ok = False
                    break
                nxt = clock + costs[(idx + j) % nphases]
                if nxt > hard_stop:
                    ok = False
                    break
                clock = nxt
                j += 1
                if head <= clock:
                    break
            if not ok:
                heapq.heappush(vheap, (rt, sq, i))
                reject = i
                break
            executed[i] = done + j
            finals[i] = clock
            dispatches += 1
            last_d[i] = dispatches
            heapq.heappush(vheap, (clock, vseq, i))
            vseq += 1

        total = sum(executed)
        if total < MIN_LOCKSTEP:
            # a too-small window will stay too small until the thread
            # whose dispatch was rejected gets past the rejection
            # point serially; block re-attempts until then so hints
            # near a contended element cost one pointer check
            t = band[reject]
            _costs, nphases, idx0 = plans[reject]
            if exhausted[reject] and shapes[reject].is_rmw:
                blocked_until = welems[reject] * nphases + 1
            else:
                blocked_until = idx0 + executed[reject] + 1
            self._seq_block = (t, t.run_op, blocked_until)
            self._seq_decline()
            return
        for i, t in enumerate(band):
            n = executed[i]
            if not n:
                continue
            self.advance(t, shapes[i], n, t.ready_time)
            if self._switch is not None:
                self._switch(t.tid, t.ready_time, "lockstep", n)
        # re-enqueue in replayed final-dispatch order: fresh real seqs
        # land in the same relative order the serial dispatches would
        # have assigned them
        order = sorted((i for i in range(nthreads) if executed[i]),
                       key=lambda i: last_d[i])
        for i in order:
            engine._schedule(band[i], finals[i])
        self.batched_ops += total
        self.lockstep_batches += 1
        if total < LOCKSTEP_PAYOFF:
            self._seq_decline()
        else:
            self._seq_streak = 0

    def _seq_decline(self):
        """Back off after a failed/declined window attempt."""
        s = self._seq_streak
        self._seq_streak = s + 1
        self._seq_cool = 1 << s if s < 6 else 64

    def _addr_safe(self, va, width, tcache, fast, core):
        """Whether an access at ``va`` is a guaranteed fast hit: no
        line straddle, a covering translation-cache entry, and the
        line fast-owned by ``core``.  Fast hits neither evict owner
        micro-cache entries nor install translations, so safety is
        stable across a lockstep window."""
        if (va & 63) + width > 64:
            return False
        entry = tcache.get(va >> 12)
        if entry is None or va + width > entry[1]:
            return False
        line_pa = (va + entry[0]) & ~63
        owner = fast.get(line_pa)
        if owner is None or owner[0] != core:
            return False
        return not (self._numa_active
                    and self._numa_remote(line_pa, core))

    # ------------------------------------------------------------------
    def advance(self, thread, shape, n, rt):
        """Apply ``n`` verified sub-ops of ``thread``'s sequence, whose
        :class:`~repro.isa.lowering.SeqShape` is ``shape``, starting at
        clock ``rt`` — element-by-element in plain Python, but against
        local dicts, committing physmem writes, directory timestamps
        (:func:`~repro.sim.cache_batch.apply_fast_mixed`) and counters
        once at the end.

        Byte-identical to ``n`` serial sub-op dispatches: loads see
        earlier pending stores, timestamps are the pre-cost clocks of
        each line's final access/write, and a window ending between an
        RMW's load and store carries the loaded value in
        ``run_values`` exactly as the serial break does."""
        machine = self.engine.machine
        physmem = machine.physmem
        read_int = physmem.read_int
        tcache = thread.process.aspace._tcache
        op = thread.run_op
        width = op.width
        costs = shape.costs
        nphases = len(costs)
        is_rmw = shape.is_rmw
        if is_rmw:
            addrs = op.addrs
            deltas = op.deltas
            delta = shape.delta
            mask = shape.mask
        else:
            seq_values = op.values
            pa0 = op.addr + tcache[op.addr >> 12][0]
            line0 = pa0 & ~63
        idx = thread.run_index
        clock = rt
        carried = thread.run_values
        pending = {}
        lines = {}
        loads = 0
        stores = 0
        for _ in range(n):
            element, phase = divmod(idx, nphases)
            if is_rmw:
                if phase == 0:
                    va = addrs[element]
                    pa = va + tcache[va >> 12][0]
                    v = pending.get(pa)
                    carried = read_int(pa, width) if v is None else v
                    rec = lines.get(pa & ~63)
                    if rec is None:
                        lines[pa & ~63] = [clock, None]
                    else:
                        rec[0] = clock
                    loads += 1
                elif phase == 1:
                    va = addrs[element]
                    pa = va + tcache[va >> 12][0]
                    pending[pa] = (carried + (
                        delta if delta is not None
                        else deltas[element])) & mask
                    carried = None
                    rec = lines.get(pa & ~63)
                    if rec is None:
                        lines[pa & ~63] = [clock, clock]
                    else:
                        rec[0] = clock
                        rec[1] = clock
                    stores += 1
            elif phase == 0:
                pending[pa0] = seq_values[element]
                rec = lines.get(line0)
                if rec is None:
                    lines[line0] = [clock, clock]
                else:
                    rec[0] = clock
                    rec[1] = clock
                stores += 1
            clock += costs[phase]
            idx += 1
        write_int = physmem.write_int
        for pa, value in pending.items():
            write_int(pa, value, width)
        apply_fast_mixed(machine.directory, thread.core, lines,
                         loads + stores)
        thread.run_index = idx
        thread.run_values = carried
        thread.loads += loads
        thread.stores += stores
        machine.core_clock[thread.core] = clock
        self.batches += 1
