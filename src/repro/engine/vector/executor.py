"""The vector executor: batch advancement of uncontended stretches.

Two kernels, both *exact* — every simulated quantity (per-core clocks,
directory state and counters, physical memory, HITM totals, metrics)
ends byte-identical to the serial interpreter:

**Stretch kernel** (:meth:`VectorExecutor.advance`) — called from the
engine's ``_run_accesses`` dispatch loop.  It sizes the longest batch
the serial loop would have executed *without breaking or leaving the
fast path*: closed-form bounds for every context-switch condition
(another thread's ready time, a due runtime tick, the cycle budget),
the lowered op's static straddle indices, and a page/line walk over the
translation micro-cache and the directory's owner micro-cache.  The
batch then collapses to O(distinct lines) directory updates
(:mod:`repro.sim.cache_batch`), one strided physmem transfer per page,
and a single clock increment.

**Lockstep kernel** (:meth:`VectorExecutor.try_lockstep`) — called
from the heap loop when a stretch ends on another thread's ready time.
When every READY thread sits mid-run on its own core with uniform
per-access cost and ready times spread at most one access apart, the
serial scheduler provably round-robins them one access per dispatch;
N such rounds are extrapolated at once and the threads re-enqueued in
their (ready_time, seq) band order, which preserves pop order and tie
breaking exactly.  For the sequence ops
(:class:`~repro.isa.ops.RmwSeq` / :class:`~repro.isa.ops.StoreSeq`),
whose sub-op costs cycle through load/store/compute phases, the
steady state is not a fixed round-robin; the kernel instead *replays
the heap loop's arithmetic* in miniature over the band and applies
the replayed per-thread sub-op counts wholesale
(:meth:`VectorExecutor._lockstep_seq`).

Fallback boundaries (where batching stops and the serial path runs)
are the contract in docs/ARCHITECTURE.md: sync ops and region
boundaries (separate ops, never lowered), cross-thread contention on a
line (owner micro-cache probe fails), PTSB commits, runtime ticks (a
bound on every window, not a gate), runs a process routes around its
PTSB (:attr:`~repro.engine.thread.SimProcess.routed`; declined run by
run; :meth:`~repro.engine.thread.SimThread.routes`), schedule-policy
decision points (policy mode disables the executor), and LASER's
access override and active tracer/sanitizer/fault hooks (eligibility
gate in ``Engine._build_vector``).
"""

import heapq

from repro.isa.lowering import numpy_available
from repro.isa.ops import AccessRun, RmwSeq, StoreSeq
from repro.sim.cache_batch import apply_fast_hits, apply_fast_mixed

try:
    import numpy as _np
except ImportError:                                   # pragma: no cover
    _np = None

from repro.engine.thread import READY
from repro.engine.vector.compiler import RunCompiler

#: Smallest batch worth the kernel's fixed overhead; below it the
#: serial loop is faster and exactly as correct.
MIN_BATCH = 8

#: Smallest lockstep extrapolation worth the setup walk.
MIN_LOCKSTEP = 16


def vector_available():
    """Whether the numpy kernels can run at all."""
    return _np is not None and numpy_available()


class VectorExecutor:
    """Per-engine vector execution state and kernels."""

    def __init__(self, engine):
        self.engine = engine
        self.compiler = RunCompiler()
        costs = engine.costs
        self._load_hit = costs.load_hit
        self._store_hit = costs.store_hit
        #: Accesses advanced by batch kernels / left to the serial path
        #: while the executor was active (the MetricsRegistry pair).
        self.batched_ops = 0
        self.fallback_ops = 0
        self.batches = 0
        self.lockstep_batches = 0
        #: Set by :meth:`advance` when a batch ended on another
        #: thread's ready time — the heap loop then tries lockstep.
        self.hint = False
        #: After a declined seq window: ``(thread, op, run_index)``
        #: the rejected thread must reach before re-attempting.
        self._seq_block = None
        #: Exponential backoff for seq attempts on contended phases:
        #: consecutive declines suppress the next ``2**streak`` hints
        #: (capped), so heavily contended stretches pay O(log n)
        #: attempt setups instead of one per contended element.
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
    def lookup(self, op):
        """Compiled columns for ``op`` (or None); counts hits/misses."""
        return self.compiler.lookup(op)

    def note_fallback(self, tid, ts, n):
        """Account ``n`` serially executed accesses of a vector-active
        run and emit the slow-path switch event for the tracer."""
        self.fallback_ops += n
        if self._switch is not None:
            self._switch(tid, ts, "fallback", n)

    # ------------------------------------------------------------------
    def advance(self, thread, comp, index, addr, clock, now,
                head_ready, next_tick, max_cycles):
        """Batch-advance ``thread``'s current run from ``index``.

        ``now`` is the machine time when the dispatch began; ``thread``'s
        clock only grows after it, so the serial loop's machine time
        after each access is ``max(clock, now)``.

        Returns ``(k, new_clock, brk)`` after bulk-executing ``k``
        accesses — ``brk`` true when the serial loop would break out of
        the dispatch right after access ``k`` — or ``None`` when no
        batch of at least :data:`MIN_BATCH` is provably fast-path.
        All state effects (clock, directory, physmem, loaded values,
        thread cycles) are applied before returning.
        """
        engine = self.engine
        core = thread.core
        is_write = comp.is_write
        c = self._store_hit if is_write else self._load_hit

        # cheap rejection: current access must itself be a fast hit
        tcache = thread.process.aspace._tcache
        entry = tcache.get(addr >> 12)
        if entry is None:
            return None
        fast = engine.machine.directory._fast
        line_pa = (addr + entry[0]) & ~63
        owner = fast.get(line_pa)
        if owner is None or owner[0] != core:
            return None
        if self._numa_active and self._numa_remote(line_pa, core):
            return None

        # closed-form break bounds: smallest executed count after which
        # the serial loop's break ladder would fire (checked after each
        # access at pre-break clock ``clock + k*c``)
        remaining = comp.count - index
        kmax = remaining
        is_break = False
        head_bound = None
        if head_ready is not None:
            gap = head_ready - clock
            head_bound = 1 if gap <= 0 else -(-gap // c)
            if head_bound < kmax:
                kmax = head_bound
                is_break = True
        if next_tick is not None:
            gap = next_tick - clock
            bound = 1 if now >= next_tick or gap <= 0 \
                else -(-gap // c)
            if bound < kmax:
                kmax = bound
                is_break = True
        budget_bound = (max_cycles - clock) // c + 1
        if now > max_cycles or budget_bound < 1:
            budget_bound = 1
        if budget_bound < kmax:
            kmax = budget_bound
            is_break = True
        if kmax < MIN_BATCH:
            if kmax == head_bound:
                # another thread's ready time is at most a few accesses
                # away: the run is in the round-robin steady state the
                # lockstep kernel extrapolates
                self.hint = True
            return None

        # static straddle indices: never batch across one
        bad = comp.bad
        if bad.size:
            pos = int(_np.searchsorted(bad, index))
            if pos < bad.size:
                nxt = int(bad[pos])
                if nxt == index:
                    return None
                if nxt - index < kmax:
                    kmax = nxt - index
                    is_break = False
                if kmax < MIN_BATCH:
                    return None

        pos, segs, pages = self._walk(comp, index, index + kmax,
                                      tcache, fast, core)
        k = pos - index
        if k < MIN_BATCH:
            return None
        brk = is_break and k == kmax

        self._apply(thread, comp, index, clock, c, k, segs, pages)
        self.batched_ops += k
        self.batches += 1
        if brk and kmax == head_bound:
            self.hint = True
        if self._switch is not None:
            self._switch(thread.tid, clock, "batch", k)
        return k, clock + k * c, brk

    # ------------------------------------------------------------------
    def try_lockstep(self):
        """Extrapolate N scheduler rounds of lockstepped runs at once.

        Preconditions mirror the steady state the serial heap loop
        provably settles into (see module docstring); any failed check
        bails with no state touched, leaving the serial path to run.

        A runtime tick bounds both kernels: the heap loop calls this
        before it runs a due tick, so no window starts while one is due
        (``machine.now >= next_tick``), and no clock in a window may
        reach the next tick, which the serial loop would fire only
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
        lo = ready[0].ready_time
        # the band: every thread within one access cost of the earliest
        # ready time round-robins one access per dispatch.  READY
        # threads beyond the band (e.g. the main thread waiting out a
        # pthread_create stagger) are never popped while band ready
        # times stay strictly below theirs — they only cap the rounds.
        first_op = ready[0].run_op
        if first_op is None:
            return
        if first_op.__class__ is not AccessRun:
            if self._seq_cool > 0:
                self._seq_cool -= 1
                return
            self._lockstep_seq(ready, next_tick)
            return
        first_comp = self.compiler.lookup(first_op)
        if first_comp is None:
            return
        c = self._store_hit if first_comp.is_write else self._load_hit
        band = [t for t in ready if t.ready_time - lo <= c]
        if len(band) < 2:
            return
        future_rt = (ready[len(band)].ready_time
                     if len(band) < len(ready) else None)
        cores = set()
        plans = []
        hi = lo
        for t in band:
            op = t.run_op
            if op is None or t.pending_penalty:
                return
            if t.routes(op):
                # the runtime's translate owns these accesses
                return
            if t.core in cores:
                return
            cores.add(t.core)
            rt = t.ready_time
            if rt != core_clock[t.core]:
                return
            comp = self.compiler.lookup(op)
            if comp is None:
                return
            tc = self._store_hit if comp.is_write else self._load_hit
            if tc != c:
                return
            plans.append((t, comp, rt))
            hi = rt if rt > hi else hi

        rounds = None
        max_cycles = engine.max_cycles
        # band ready times must stay strictly below the first
        # out-of-band thread's, and every clock below the next tick,
        # through every extrapolated round
        for limit in (future_rt, next_tick):
            if limit is None:
                continue
            cap = (limit - 1 - hi) // c
            if cap < MIN_LOCKSTEP:
                return
            rounds = cap if rounds is None else min(rounds, cap)
        for t, comp, rt in plans:
            index = t.run_index
            # keep every run open (the serial epilogue finishes it) and
            # never let any clock cross the budget mid-extrapolation
            cap = min(comp.count - index - 1, (max_cycles - rt) // c)
            if cap < MIN_LOCKSTEP:
                return
            if bad_limit := self._bad_limit(comp, index):
                if bad_limit[0]:
                    return
                cap = min(cap, bad_limit[1])
                if cap < MIN_LOCKSTEP:
                    return
            tcache = t.process.aspace._tcache
            fast = engine.machine.directory._fast
            pos, _segs, _pages = self._walk(comp, index, index + cap,
                                            tcache, fast, t.core)
            if pos - index < MIN_LOCKSTEP:
                return
            rounds = (pos - index if rounds is None
                      else min(rounds, pos - index))
        n = rounds

        for t, comp, rt in plans:
            index = t.run_index
            tcache = t.process.aspace._tcache
            fast = engine.machine.directory._fast
            _pos, segs, pages = self._walk(comp, index, index + n,
                                           tcache, fast, t.core)
            self._apply(t, comp, index, rt, c, n, segs, pages)
            t.run_index = index + n
            if comp.is_write:
                t.stores += n
            else:
                t.loads += n
            if self._switch is not None:
                self._switch(t.tid, rt, "lockstep", n)
        # re-enqueue in (ready_time, seq) band order: fresh seqs in the
        # same relative order the serial final round would have assigned
        plans.sort(key=lambda item: (item[2], item[0].seq))
        for t, _comp, rt in plans:
            engine._schedule(t, rt + n * c)
        self.batched_ops += n * len(plans)
        self.lockstep_batches += 1

    # ------------------------------------------------------------------
    def _lockstep_seq(self, ready, next_tick):
        """Extrapolate a window of :class:`RmwSeq`/:class:`StoreSeq`
        dispatches by replaying the heap loop's arithmetic in
        miniature.

        Sequence sub-op costs cycle through load/store/compute phases,
        so unlike the uniform-cost AccessRun band the steady state is
        not a fixed round-robin: threads drift through phase offsets
        and each dispatch runs a variable number of sub-ops.  But a
        mid-run seq dispatch depends *only* on scheduler arithmetic —
        pop the earliest ``(ready_time, seq)`` thread, execute sub-ops
        until its clock reaches the next ready time, re-enqueue — as
        long as every access stays a fast hit on a line the thread
        owns (no HITM, no directory interaction, no translation
        installs; verified by a lazy per-element ownership walk).  The
        kernel therefore replays exactly that arithmetic against
        per-thread cost cycles with no simulated state touched, then
        applies each thread's replayed sub-op count wholesale
        (:meth:`_apply_seq`) and re-enqueues the threads in their
        replayed dispatch order, which reproduces the serial heap's
        ``(ready_time, seq)`` ordering exactly.

        The window ends — leaving the remainder to the serial path —
        strictly *before* any dispatch that would leave the verified
        fast-hit prefix, execute a run's final sub-op (the serial
        epilogue closes runs), cross the cycle budget, reach the next
        runtime tick, or reach an out-of-band thread's ready time
        (whose pop would break the band-only replay).  Rejected
        dispatches re-run natively, so every committed prefix is a
        serial-reachable state.
        """
        blk = self._seq_block
        if blk is not None:
            # a declined window stays declined until the rejected
            # thread progresses past the rejection point serially
            t, op, idx_needed = blk
            if t.run_op is op and t.run_index < idx_needed:
                self._seq_decline()
                return
            self._seq_block = None
        engine = self.engine
        core_clock = engine.machine.core_clock
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
        fast = engine.machine.directory._fast
        shapes = []
        tcaches = []
        verified = []   # sub-ops from run_index proven fast-path
        welems = []     # next element the lazy walk would probe
        exhausted = []  # lazy walk hit an unsafe element (or is moot)
        needs = []      # hard sub-op bound: never the run's final one
        for t in band:
            op = t.run_op
            cls = op.__class__
            if cls is RmwSeq:
                costs = [self._load_hit, self._store_hit]
                count = len(op.addrs)
            else:
                costs = [self._store_hit]
                count = len(op.values)
            if op.compute:
                costs.append(op.compute)
            nphases = len(costs)
            idx = t.run_index
            need = count * nphases - idx - 1
            if need < 0:
                need = 0
            p0 = idx % nphases
            ver = 0
            wel = idx // nphases
            exh = False
            tcache = t.process.aspace._tcache
            if cls is StoreSeq:
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
            shapes.append((cls, nphases, costs, idx))
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
            cls, nphases, costs, idx0 = shapes[i]
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
            cls, nphases, _costs, idx0 = shapes[reject]
            if exhausted[reject] and cls is RmwSeq:
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
            cls, nphases, _costs, _idx = shapes[i]
            self._apply_seq(t, t.run_op, cls, nphases, n, t.ready_time)
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
        self._seq_streak = 0

    def _seq_decline(self):
        """Back off after a failed/declined seq attempt."""
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

    def _apply_seq(self, thread, op, cls, nphases, n, rt):
        """Apply ``n`` sub-ops of ``thread``'s sequence starting at
        clock ``rt`` — element-by-element in plain Python, but against
        local dicts, committing physmem writes, directory timestamps
        (:func:`apply_fast_mixed`) and counters once at the end.
        Byte-identical to ``n`` serial sub-op dispatches: loads see
        earlier pending stores, timestamps are the pre-cost clocks of
        each line's final access/write, and a window ending between an
        RMW's load and store carries the loaded value in
        ``run_values`` exactly as the serial break does."""
        engine = self.engine
        machine = engine.machine
        physmem = machine.physmem
        read_int = physmem.read_int
        tcache = thread.process.aspace._tcache
        width = op.width
        compute = op.compute
        store_hit = self._store_hit
        is_rmw = cls is RmwSeq
        if is_rmw:
            addrs = op.addrs
            deltas = op.deltas
            const_delta = deltas if isinstance(deltas, int) else None
            mask = (1 << (8 * width)) - 1
            load_hit = self._load_hit
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
                    cost = load_hit
                elif phase == 1:
                    va = addrs[element]
                    pa = va + tcache[va >> 12][0]
                    delta = (const_delta if const_delta is not None
                             else deltas[element])
                    pending[pa] = (carried + delta) & mask
                    carried = None
                    rec = lines.get(pa & ~63)
                    if rec is None:
                        lines[pa & ~63] = [clock, clock]
                    else:
                        rec[0] = clock
                        rec[1] = clock
                    stores += 1
                    cost = store_hit
                else:
                    cost = compute
            elif phase == 0:
                pending[pa0] = seq_values[element]
                rec = lines.get(line0)
                if rec is None:
                    lines[line0] = [clock, clock]
                else:
                    rec[0] = clock
                    rec[1] = clock
                stores += 1
                cost = store_hit
            else:
                cost = compute
            clock += cost
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
        thread.cycles += clock - rt
        machine.core_clock[thread.core] = clock

    # ------------------------------------------------------------------
    def _bad_limit(self, comp, index):
        """(current_is_bad, accesses_until_next_bad) or None if clear."""
        bad = comp.bad
        if not bad.size:
            return None
        pos = int(_np.searchsorted(bad, index))
        if pos >= bad.size:
            return None
        nxt = int(bad[pos])
        return (nxt == index, nxt - index)

    def _walk(self, comp, index, end, tcache, fast, core):
        """Walk page/line runs from ``index`` while every access is a
        guaranteed fast hit; stop at ``end``.

        Returns ``(pos, segs, pages)``: the first non-batchable index,
        per-line segments ``(line_pa, seg_end)`` and per-page segments
        ``(start, end, delta)`` covering ``[index, pos)``.
        """
        page_starts = comp.page_starts
        page_ids = comp.page_ids
        line_starts = comp.line_starts
        line_ids = comp.line_ids
        pi = int(_np.searchsorted(page_starts, index, side="right")) - 1
        li = int(_np.searchsorted(line_starts, index, side="right")) - 1
        pos = index
        segs = []
        pages = []
        while pos < end:
            page = int(page_ids[pi])
            entry = tcache.get(page)
            if entry is None or ((page + 1) << 12) > entry[1]:
                break
            delta = entry[0]
            page_cap = int(page_starts[pi + 1])
            if page_cap > end:
                page_cap = end
            page_start = pos
            while pos < page_cap:
                line_run_end = int(line_starts[li + 1])
                line_pa = (int(line_ids[li]) << 6) + delta
                owner = fast.get(line_pa)
                if owner is None or owner[0] != core:
                    break
                if self._numa_active and self._numa_remote(line_pa, core):
                    break
                seg_end = (line_run_end if line_run_end < page_cap
                           else page_cap)
                segs.append((line_pa, seg_end))
                pos = seg_end
                if pos == line_run_end:
                    li += 1
            if pos > page_start:
                pages.append((page_start, pos, delta))
            if pos < page_cap:
                break
            pi += 1
        return pos, segs, pages

    def _apply(self, thread, comp, index, clock, c, k, segs, pages):
        """Apply ``k`` batched fast hits starting at ``index`` whose
        pre-cost clocks are ``clock + j*c``: directory timestamps and
        E->M upgrades per line, strided physmem transfers per page, and
        the clock/cycle advancement — byte-identical to ``k`` serial
        iterations of the dispatch loop."""
        engine = self.engine
        machine = engine.machine
        is_write = comp.is_write
        end = index + k
        line_finals = []
        for line_pa, seg_end in segs:
            if seg_end > end:
                seg_end = end
            line_finals.append((line_pa,
                                clock + (seg_end - index - 1) * c))
        apply_fast_hits(machine.directory, thread.core, is_write,
                        line_finals, k)
        physmem = machine.physmem
        stride = comp.stride
        width = comp.width
        addrs = comp.addrs
        if is_write:
            value = comp.value
            for start, stop, delta in pages:
                if stop > end:
                    stop = end
                physmem.write_int_run(int(addrs[start]) + delta, stride,
                                      stop - start, value, width)
        else:
            values = thread.run_values
            for start, stop, delta in pages:
                if stop > end:
                    stop = end
                values.extend(physmem.read_int_run(
                    int(addrs[start]) + delta, stride, stop - start,
                    width))
        machine.core_clock[thread.core] = clock + k * c
        thread.cycles += k * c
