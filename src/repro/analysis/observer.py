"""Engine observer interface.

The engine accepts one observer (``Engine.attach_observer``) and calls
these methods at access, synchronization, and thread-lifecycle events.
Every method is a no-op here so concrete observers — the race sanitizer
and the HITM ground-truth collector — override only what they consume.

The engine charges **zero cycles** for observer calls and emits none of
them when no observer is attached, so simulation results are
bit-identical with analysis disabled.

Event ordering contracts the sanitizer relies on:

- ``on_release(tid, obj)`` fires *after* the runtime's release hook (so
  a TMI PTSB commit at the release is checked against the releaser's
  pre-release clock), and ``on_acquire(tid, obj)`` fires *before* the
  runtime's acquire hook (so a commit at the acquire sees the
  post-acquire clock);
- ``on_barrier(tids)`` fires at the release point, after all parties'
  release-side hooks and before any acquire-side hook.
"""


class EngineObserver:
    """Base observer: every callback is a no-op override point."""

    #: Observers that never consume per-access callbacks (``on_access``
    #: / ``on_atomic`` are no-ops for them) may set this True; it lets
    #: the engine keep the vector batch executor active while they are
    #: attached.  Anything that inspects individual accesses (the race
    #: sanitizer, an access-event tracer) must leave it False so every
    #: access takes the serial, callback-emitting path.
    vector_safe = False

    def on_attach(self, engine):
        """Observer was attached; ``engine`` is fully constructed."""

    # ------------------------------------------------------------------
    # data accesses
    # ------------------------------------------------------------------
    def on_access(self, tid, site, addr, width, is_write, volatile):
        """One plain load or store (including each access of a run)."""

    def on_atomic(self, tid, site, addr, width, is_write, is_rmw,
                  ordering):
        """One atomic access; RMWs report ``is_write=True, is_rmw=True``."""

    def on_fence(self, tid):
        """A full memory fence executed."""

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def on_acquire(self, tid, obj):
        """Thread ``tid`` acquired mutex ``obj``."""

    def on_release(self, tid, obj):
        """Thread ``tid`` is releasing mutex ``obj`` (also fired when a
        cond_wait atomically releases the mutex)."""

    def on_barrier(self, tids):
        """A barrier released; ``tids`` are all participants."""

    def on_hb_edge(self, src_tid, dst_tid):
        """A direct happens-before edge (join completion, cond signal)."""

    # ------------------------------------------------------------------
    # threads
    # ------------------------------------------------------------------
    def on_thread_create(self, parent_tid, child_tid):
        """``parent_tid`` spawned ``child_tid``."""

    def on_thread_exit(self, tid):
        """Thread ``tid`` ran to completion."""

    # ------------------------------------------------------------------
    # TMI runtime
    # ------------------------------------------------------------------
    def on_ptsb_commit(self, info):
        """A PTSB committed; ``info`` has pid/core/reason/pages/bytes
        and the merged physical byte ``spans``."""

    def on_ptsb_flush(self, info):
        """Code-centric consistency flushed a PTSB on region entry;
        ``info`` has the flushing ``tid`` and the ``region`` kind."""

    def on_t2p(self, info):
        """A thread-to-process conversion episode ran; ``info`` has
        ``cycle``, ``threads`` converted, total ``cycles`` charged, and
        ``mode`` (``initial`` stop-the-world batch or ``adopt`` for a
        thread created after repair began)."""

    # ------------------------------------------------------------------
    # machine / sampling (observability hooks)
    # ------------------------------------------------------------------
    def on_hitm(self, event):
        """One hardware HITM (:class:`~repro.sim.events.HitmEvent`).

        Only observers that override this are registered as machine
        HITM listeners — the base class costs nothing.
        """

    def on_pebs_records(self, records):
        """The detection thread drained a batch of
        :class:`~repro.oskit.perf.PebsRecord` samples."""

    def on_detect_interval(self, report, cycle):
        """The detector finished one interval analysis at machine time
        ``cycle``; ``report`` is its
        :class:`~repro.core.detector.IntervalReport`."""

    # ------------------------------------------------------------------
    # fault injection / degradation (robustness hooks)
    # ------------------------------------------------------------------
    def on_fault(self, event):
        """An injected fault fired (or a page was demoted); ``event``
        is the injection-log dict: ``seq``, ``point``, and per-point
        context (cycle, tid, page_va...)."""

    def on_degradation(self, info):
        """The degradation ladder transitioned; ``info`` has ``cycle``,
        ``interval``, ``from``, ``to``, and ``reason`` (see
        :mod:`repro.core.ladder`)."""

    # ------------------------------------------------------------------
    # vector batch execution (perf observability)
    # ------------------------------------------------------------------
    def on_vector_switch(self, tid, ts, mode, ops):
        """The vector executor batched thread ``tid`` from simulated
        time ``ts``: ``mode`` is always ``"lockstep"``, and ``ops`` is
        the thread's sub-ops in one committed lockstep window.  Purely
        observational — emitted only when batching actually ran, and
        never charged any cycles."""


class ObserverMux(EngineObserver):
    """Fans every observer callback out to an ordered list of children.

    ``Engine.attach_observer`` builds one automatically when a second
    observer attaches (e.g. the race sanitizer plus a tracer), so
    concrete observers never need to know about each other.  The mux
    overrides *every* ``on_*`` callback of :class:`EngineObserver`, so
    a callback added to the base class fans out with no edit here.
    """

    def __init__(self, observers=()):
        self.observers = list(observers)

    def add(self, observer):
        """Append one child observer."""
        self.observers.append(observer)

    @property
    def vector_safe(self):
        """The mux is vector-safe only if every child is."""
        return all(getattr(observer, "vector_safe", False)
                   for observer in self.observers)


def _fanout(name):
    def method(self, *args):
        for observer in self.observers:
            getattr(observer, name)(*args)
    method.__name__ = name
    method.__doc__ = f"Fan ``{name}`` out to every child observer."
    return method


for _name in vars(EngineObserver):
    if _name.startswith("on_"):
        setattr(ObserverMux, _name, _fanout(_name))
del _name
