"""Runtime hook interface.

A *runtime system* (plain pthreads, TMI, Sheriff, LASER) plugs into the
engine through this interface.  The engine owns scheduling and op
execution; the runtime owns memory layout, allocator placement, sync
interposition, consistency callbacks, sampling, and repair.

The default implementations are no-ops so that a runtime only overrides
what it changes — this is the code-level expression of TMI's
compatible-by-default principle (section 3).

Runtime hooks participate in simulation (they charge cycles and mutate
state); passive instrumentation — the race sanitizer, the HITM
ground-truth collector — attaches instead as an
:class:`~repro.analysis.observer.EngineObserver` via
``Engine.attach_observer``, which charges nothing and cannot perturb
results.
"""


class RuntimeHooks:
    """Base runtime: override points with no-op defaults."""

    #: Display name used in reports.
    name = "base"
    #: If nonzero, ``on_tick`` fires every this many cycles of machine time.
    tick_cycles = 0
    #: Armed :class:`~repro.faults.FaultInjector`, or None (the
    #: default: no fault plan, zero-cost injection sites).  The eval
    #: runner arms this before ``setup``.
    faults = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def setup(self, engine):
        """Create the root address space, standard mappings, and the
        allocator.  Must set ``engine.root_aspace`` and
        ``engine.allocator``."""
        raise NotImplementedError

    def check_workload(self, program):
        """Raise :class:`~repro.errors.IncompatibleWorkloadError` if this
        runtime cannot run ``program`` (e.g. Sheriff on native inputs)."""

    # ------------------------------------------------------------------
    # threads
    # ------------------------------------------------------------------
    def on_thread_created(self, engine, thread):
        """New application thread (pthread_create interposition)."""

    def on_thread_exit(self, engine, thread):
        """Thread finished (final PTSB commit happens here)."""

    # ------------------------------------------------------------------
    # memory operations
    # ------------------------------------------------------------------
    def exec_access_override(self, engine, thread, op):
        """Fully intercept a data access or a fence; return ``(cost,
        value)`` or None to use the engine's default path (LASER's
        software store buffer lives here)."""
        return None

    def translate(self, engine, thread, op, va, width, is_write):
        """Translate an access to a physical address.

        The engine calls this only for accesses a process flagged
        :attr:`~repro.engine.thread.SimProcess.routed` may route: its
        atomics, and its volatile and in-region loads and stores.
        Runtimes implementing code-centric consistency send those to
        the always-shared mapping here; every other access translates
        through the address space's cache, so the vector kernel can
        batch it.  Returns a :class:`~repro.sim.addrspace.Translation`.
        """
        return thread.process.aspace.translate(va, width, is_write)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def on_sync_object_init(self, engine, thread, obj):
        """A mutex/barrier/condvar was initialized (redirection point)."""

    def sync_cost_extra(self, engine, thread, obj):
        """Extra cycles per sync op (e.g. pshared indirection)."""
        return 0

    def on_sync_acquired(self, engine, thread, obj, kind):
        """A lock was acquired / a barrier was passed.  Returns extra
        cycles (PTSB empty-on-acquire happens here)."""
        return 0

    def on_sync_release(self, engine, thread, obj, kind):
        """About to release a lock / arrive at a barrier.  Returns extra
        cycles (PTSB commit-on-release happens here)."""
        return 0

    # ------------------------------------------------------------------
    # code-centric consistency callbacks (section 3.4.2)
    # ------------------------------------------------------------------
    def on_region_begin(self, engine, thread, kind, ordering):
        """Entering an atomic or asm region.  Returns extra cycles."""
        return 0

    def on_region_end(self, engine, thread, kind):
        """Leaving an atomic or asm region.  Returns extra cycles."""
        return 0

    # ------------------------------------------------------------------
    # periodic work
    # ------------------------------------------------------------------
    def on_tick(self, engine, now):
        """Fires every ``tick_cycles`` of machine time (detector pass)."""

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def memory_report(self, engine):
        """Runtime-specific memory overheads in bytes, by category."""
        return {}

    def report(self, engine):
        """End-of-run facts: a flat dict, nested dicts allowed.

        It becomes ``RunResult.runtime_report``, and ``Engine.metrics``
        folds it into ``runtime.*`` gauges labeled with the runtime's
        name, so a new fact needs only a key here.
        """
        return {}

    def fill_metrics(self, engine, registry):
        """Add the instruments a flat :meth:`report` cannot carry
        (TMI's commit-size histogram) to a
        :class:`~repro.obs.metrics.MetricsRegistry`."""
