"""Host-side self-profiling: where does the simulator spend wall time?

The simulator's own performance work (ROADMAP: "as fast as the hardware
allows") needs attribution, not guesswork.  A :class:`Profiler` wraps a
run's subsystem boundaries with ``time.perf_counter`` timers and
reports *exclusive* (self) time per category, so a future perf PR can
read off the next hot path instead of re-deriving it with ``cProfile``
runs.

Profiling perturbs host wall time only — simulated cycles are computed
identically, so a profiled run's ``RunResult`` matches an unprofiled
one bit for bit (the obs test suite pins this).

Categories wrapped by :meth:`Profiler.install`:

- ``memory-system`` — :meth:`~repro.sim.machine.Machine.mem_access`
  (coherence directory + physical memory + HITM listeners);
- ``runtime-translate`` — the runtime's ``translate`` hook, when
  overridden (TMI's code-centric routing; the engine calls it only for
  the atomic, volatile and in-region accesses of a routed process);
- ``runtime-sync`` — the runtime's sync-hook surface, which is where
  TMI's PTSB commits happen;
- ``detector`` — the runtime's ``on_tick`` (PEBS drain, interval
  analysis, repair requests);
- everything else lands in the ``engine`` residue, computed as the
  ``run`` phase minus all attributed time.

Phases (``build``, ``engine-init``, ``run``, ``result``) are timed by
the harness through :meth:`Profiler.phase`.
"""

import time
from contextlib import contextmanager


class Profiler:
    """Exclusive wall-time attribution across simulator subsystems."""

    def __init__(self):
        #: Exclusive (self) seconds per category.
        self.seconds = {}
        #: Inclusive seconds per category (children included).
        self.inclusive = {}
        self.calls = {}
        #: Timer nesting stack: [category, child_seconds] frames, so a
        #: wrapped call that re-enters another wrapped call attributes
        #: self time only (no double counting).
        self._stack = []

    # ------------------------------------------------------------------
    # accounting primitives
    # ------------------------------------------------------------------
    def _enter(self, category):
        self._stack.append([category, 0.0])
        return time.perf_counter()

    def _exit(self, category, start):
        elapsed = time.perf_counter() - start
        _, child = self._stack.pop()
        self.seconds[category] = (self.seconds.get(category, 0.0)
                                  + elapsed - child)
        self.inclusive[category] = (self.inclusive.get(category, 0.0)
                                    + elapsed)
        self.calls[category] = self.calls.get(category, 0) + 1
        if self._stack:
            self._stack[-1][1] += elapsed

    @contextmanager
    def phase(self, name):
        """Time one harness phase (``build``, ``run``, ...)."""
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, start)

    def wrap(self, obj, attr, category):
        """Replace ``obj.attr`` with a timed wrapper (per instance)."""
        inner = getattr(obj, attr)

        def timed(*args, **kwargs):
            start = self._enter(category)
            try:
                return inner(*args, **kwargs)
            finally:
                self._exit(category, start)

        setattr(obj, attr, timed)

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, engine):
        """Wrap ``engine``'s subsystem boundaries for attribution."""
        from repro.engine.hooks import RuntimeHooks

        self.wrap(engine.machine, "mem_access", "memory-system")
        # a PTSB commit drives the directory without mem_access; same
        # category, so the split stays honest
        self.wrap(engine.machine.directory, "access", "memory-system")
        self.wrap(engine.root_aspace, "translate", "vm-translate")
        runtime = engine.runtime
        rt_cls = type(runtime)
        if rt_cls.translate is not RuntimeHooks.translate:
            self.wrap(runtime, "translate", "runtime-translate")
        for hook in ("on_sync_acquired", "on_sync_release",
                     "sync_cost_extra", "on_sync_object_init"):
            if getattr(rt_cls, hook) is not getattr(RuntimeHooks, hook):
                self.wrap(runtime, hook, "runtime-sync")
        if rt_cls.on_tick is not RuntimeHooks.on_tick:
            self.wrap(runtime, "on_tick", "detector")
        # the engine caches hook-override flags at construction; the
        # wrappers replace instance attributes, so the cached flags and
        # the wrapped hot paths stay consistent

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    #: Harness phases (reported with inclusive time); every other
    #: category is a subsystem and reports exclusive (self) time.
    PHASES = ("build", "engine-init", "run", "result")

    def report(self):
        """Attribution as a plain dict (category -> seconds/calls).

        Phases report inclusive seconds; subsystems report exclusive
        seconds.  ``engine`` is the ``run`` phase's self time — the
        dispatch loop and op execution not claimed by any wrapped
        subsystem.
        """
        out = {}
        for name in sorted(self.seconds):
            inclusive = name in self.PHASES
            value = self.inclusive[name] if inclusive else \
                self.seconds[name]
            out[name] = {"seconds": round(value, 6),
                         "calls": self.calls.get(name, 0)}
        if "run" in self.seconds:
            out["engine"] = {"seconds": round(self.seconds["run"], 6),
                             "calls": self.calls.get("run", 0)}
        return out

    def format(self):
        """Human-readable attribution table, hottest first."""
        return format_profile(self.report())


def format_profile(report):
    """Format a :meth:`Profiler.report` dict as a table, hottest first.

    Works on the plain dict (which is what crosses process boundaries
    and lands on ``RunOutcome.profile``), not on a live Profiler.
    """
    total = sum(report[name]["seconds"] for name in Profiler.PHASES
                if name in report)
    lines = ["self-profile (host wall time by subsystem):"]
    order = sorted(report.items(),
                   key=lambda item: -item[1]["seconds"])
    for name, entry in order:
        if name == "run":
            continue               # shown as its 'engine' self time
        pct = (100.0 * entry["seconds"] / total) if total else 0.0
        calls = entry["calls"] or ""
        lines.append(f"  {name:<18} {entry['seconds']*1e3:10.2f} ms"
                     f"  {pct:5.1f}%  {calls:>10}")
    lines.append(f"  {'total':<18} {total*1e3:10.2f} ms")
    return "\n".join(lines)
