"""The API workload code is written against.

A thread body is ``def body(t: ThreadCtx): ...`` — a generator function.
Every memory/sync operation is expressed as ``yield from t.<op>(...)``;
the engine executes the yielded ISA op and sends the result back.

Atomic helpers automatically bracket themselves with the code-centric
consistency region markers that the paper's LLVM pass would insert
(section 3.4.2); ``asm()`` gives workloads explicit inline-assembly
regions.
"""

from repro.errors import HangError
from repro.isa import ops as O


class ThreadCtx:
    """Per-thread handle passed to workload bodies."""

    def __init__(self, engine, thread, binary):
        self._engine = engine
        self._thread = thread
        self._binary = binary
        # per-context memo of binary.auto_site (one dict probe instead of
        # a method call + registry probe on every anonymous access)
        self._auto_sites = {}

    def _auto_site(self, kind, width):
        key = (kind, width)
        site = self._auto_sites.get(key)
        if site is None:
            site = self._binary.auto_site(kind, width)
            self._auto_sites[key] = site
        return site

    # ------------------------------------------------------------------
    @property
    def tid(self):
        """This thread's id (pthread_self analog)."""
        return self._thread.tid

    @property
    def name(self):
        """The name given at spawn (empty for anonymous threads)."""
        return self._thread.name

    @property
    def nthreads(self):
        """The program's configured worker count."""
        return self._engine.program.nthreads

    # ------------------------------------------------------------------
    # plain data accesses
    # ------------------------------------------------------------------
    def load(self, addr, width=8, site=None, volatile=False):
        """Plain load of ``width`` bytes at ``addr``; returns the value."""
        site = site or self._auto_site("load", width)
        value = yield O.Load(site, addr, width, volatile)
        return value

    def store(self, addr, value, width=8, site=None, volatile=False):
        """Plain store of ``value`` (``width`` bytes) at ``addr``."""
        site = site or self._auto_site("store", width)
        yield O.Store(site, addr, value, width, volatile)

    def load_run(self, addr, count, stride, width=8, site=None,
                 volatile=False):
        """``count`` loads at ``addr, addr+stride, ...``, one op each.

        Returns the list of loaded values: the ``load`` loop over the
        same addresses, for reads with nothing to do between them.
        """
        if count <= 0:
            return []
        site = site or self._auto_site("load", width)
        values = []
        for index in range(count):
            value = yield O.Load(site, addr + index * stride, width,
                                 volatile)
            values.append(value)
        return values

    def rmw_seq(self, addrs, width, deltas, compute, load_site=None,
                store_site=None, volatile=False):
        """Load/add/store/compute over each address in ``addrs``.

        Cycle-for-cycle identical to the loop ``v = load(a); store(a,
        v + d); compute(c)`` over the same addresses — use it for
        accumulator loops whose address and delta streams are
        precomputable.  ``deltas`` is an int applied to every element
        or a sequence matched to ``addrs``.
        """
        if not addrs:
            return
        load_site = load_site or self._auto_site("load", width)
        store_site = store_site or self._auto_site("store", width)
        if not isinstance(deltas, int) and len(deltas) != len(addrs):
            raise ValueError("deltas must be an int or match addrs")
        yield O.RmwSeq(load_site, store_site, tuple(addrs), width,
                       deltas if isinstance(deltas, int)
                       else tuple(deltas), compute, volatile)

    def store_seq(self, addr, values, width, compute, site=None,
                  volatile=False):
        """Store each of ``values`` at ``addr``, ``compute`` after each.

        Cycle-for-cycle identical to the loop ``store(addr, v);
        compute(c)`` over the same values.
        """
        if not values:
            return
        site = site or self._auto_site("store", width)
        yield O.StoreSeq(site, addr, tuple(values), width, compute,
                         volatile)

    def compute(self, cycles):
        """Pure computation for ``cycles`` (no memory traffic)."""
        yield O.Compute(cycles)

    def bulk_touch(self, addr, nbytes, is_write=False, site=None):
        """Touch ``nbytes`` from ``addr`` line by line (memset/memcpy)."""
        site = site or self._auto_site(
            "store" if is_write else "load", 8)
        yield O.BulkTouch(site, addr, nbytes, is_write)

    def fence(self, site=None):
        """Full memory fence (mfence)."""
        yield O.Fence(site or self._auto_site("other", 0))

    # ------------------------------------------------------------------
    # C/C++ atomics (bracketed with consistency callbacks)
    # ------------------------------------------------------------------
    def atomic_add(self, addr, delta, width=8, ordering=O.SEQ_CST,
                   site=None):
        """fetch_add; returns the old value."""
        site = site or self._auto_site("atomic", width)
        yield O.RegionBegin(O.REGION_ATOMIC, ordering)
        old = yield O.AtomicRMW(site, addr, "add", delta, width, ordering)
        yield O.RegionEnd(O.REGION_ATOMIC)
        return old

    def atomic_xchg(self, addr, value, width=8, ordering=O.SEQ_CST,
                    site=None):
        """exchange; returns the old value."""
        site = site or self._auto_site("atomic", width)
        yield O.RegionBegin(O.REGION_ATOMIC, ordering)
        old = yield O.AtomicRMW(site, addr, "xchg", value, width, ordering)
        yield O.RegionEnd(O.REGION_ATOMIC)
        return old

    def atomic_cas(self, addr, expected, new, width=8, ordering=O.SEQ_CST,
                   site=None):
        """compare_exchange; returns the observed old value."""
        site = site or self._auto_site("atomic", width)
        yield O.RegionBegin(O.REGION_ATOMIC, ordering)
        old = yield O.AtomicRMW(site, addr, "cas", new, width, ordering,
                                expected=expected)
        yield O.RegionEnd(O.REGION_ATOMIC)
        return old

    def atomic_load(self, addr, width=8, ordering=O.SEQ_CST, site=None):
        """C11 atomic load; returns the value."""
        site = site or self._auto_site("atomic", width)
        yield O.RegionBegin(O.REGION_ATOMIC, ordering)
        value = yield O.AtomicLoad(site, addr, width, ordering)
        yield O.RegionEnd(O.REGION_ATOMIC)
        return value

    def atomic_store(self, addr, value, width=8, ordering=O.SEQ_CST,
                     site=None):
        """C11 atomic store."""
        site = site or self._auto_site("atomic", width)
        yield O.RegionBegin(O.REGION_ATOMIC, ordering)
        yield O.AtomicStore(site, addr, value, width, ordering)
        yield O.RegionEnd(O.REGION_ATOMIC)

    # ------------------------------------------------------------------
    # inline assembly regions
    # ------------------------------------------------------------------
    def asm_begin(self):
        """Enter an inline-assembly region (TSO semantics inside)."""
        yield O.RegionBegin(O.REGION_ASM)

    def asm_end(self):
        """Leave the current inline-assembly region."""
        yield O.RegionEnd(O.REGION_ASM)

    # ------------------------------------------------------------------
    # volatile flag synchronization (old-style C, Figure 12)
    # ------------------------------------------------------------------
    def volatile_load(self, addr, width=4, site=None):
        """Load through a ``volatile``-qualified pointer."""
        value = yield from self.load(addr, width, site, volatile=True)
        return value

    def volatile_store(self, addr, value, width=4, site=None):
        """Store through a ``volatile``-qualified pointer."""
        yield from self.store(addr, value, width, site, volatile=True)

    def spin_while_equal(self, addr, value, width=4, site=None,
                         max_spins=20_000, spin_cost=120):
        """Spin until ``*addr != value`` (volatile read loop).

        Raises :class:`HangError` after ``max_spins`` — the simulated
        analog of cholesky hanging forever under a PTSB without
        code-centric consistency (Figure 12).
        """
        spins = 0
        while True:
            observed = yield from self.volatile_load(addr, width, site)
            if observed != value:
                return observed
            spins += 1
            if spins >= max_spins:
                raise HangError(self.tid,
                                f"spinning on {addr:#x} == {value}")
            yield O.Compute(spin_cost)

    # ------------------------------------------------------------------
    # heap
    # ------------------------------------------------------------------
    def malloc(self, size, align=0):
        """Allocate ``size`` heap bytes; returns the address."""
        addr = yield O.Malloc(size, align)
        return addr

    def free(self, addr):
        """Release a ``malloc`` allocation."""
        yield O.FreeOp(addr)

    # ------------------------------------------------------------------
    # pthreads
    # ------------------------------------------------------------------
    def mutex(self, name=""):
        """pthread_mutex_init: allocates and registers a mutex."""
        addr = yield O.Malloc(self._engine.sync_object_size("mutex"), 8)
        mutex = self._engine.register_mutex(self._thread, addr, name)
        return mutex

    def mutex_at(self, addr, name=""):
        """Register a mutex at caller-placed memory (lock pools)."""
        return self._engine.register_mutex(self._thread, addr, name)

    def barrier(self, parties, name=""):
        """pthread_barrier_init for ``parties`` threads."""
        addr = yield O.Malloc(self._engine.sync_object_size("barrier"), 8)
        barrier = self._engine.register_barrier(self._thread, addr,
                                                parties, name)
        return barrier

    def lock(self, mutex):
        """pthread_mutex_lock (blocks until acquired)."""
        yield O.MutexLock(mutex)

    def unlock(self, mutex):
        """pthread_mutex_unlock."""
        yield O.MutexUnlock(mutex)

    def barrier_wait(self, barrier):
        """pthread_barrier_wait (blocks until all parties arrive)."""
        yield O.BarrierWait(barrier)

    def condvar(self, name=""):
        """pthread_cond_init: allocates and registers a condvar."""
        addr = yield O.Malloc(self._engine.sync_object_size("condvar"), 8)
        condvar = self._engine.register_condvar(self._thread, addr, name)
        return condvar

    def cond_wait(self, condvar, mutex):
        """Atomically release ``mutex`` and sleep until signalled; the
        mutex is re-acquired before returning."""
        yield O.CondWait(condvar, mutex)

    def cond_signal(self, condvar):
        """pthread_cond_signal: wake one waiter."""
        yield O.CondSignal(condvar)

    def cond_broadcast(self, condvar):
        """pthread_cond_broadcast: wake every waiter."""
        yield O.CondSignal(condvar, broadcast=True)

    def spawn(self, body, name=""):
        """pthread_create; returns the new thread's tid."""
        tid = yield O.ThreadCreate(body, name)
        return tid

    def join(self, tid):
        """pthread_join: block until ``tid`` exits."""
        yield O.ThreadJoin(tid)

    # ------------------------------------------------------------------
    # introspection used by a few workloads
    # ------------------------------------------------------------------
    def stack_base(self):
        """Base address of this thread's stack mapping."""
        return self._engine.stack_base(self._thread.tid)

    def now_cycles(self):
        """This thread's core clock in simulated cycles (rdtsc)."""
        return self._engine.machine.core_clock[self._thread.core]
