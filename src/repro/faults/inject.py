"""Deterministic, seeded fault injection.

A :class:`FaultInjector` answers one question at each named *fault
point* in the oskit/runtime substrate: does the operation fail this
time?  Every answer is drawn from a per-point ``random.Random`` stream
seeded as ``f"{seed}:{point}"``, so

- the decision sequence at one point is independent of activity at
  every other point (adding a new fault point cannot reshuffle the
  failures an existing plan produces), and
- the same seed + rates replays the identical failure sequence on any
  host (``PYTHONHASHSEED``-independent, process-count-independent).

The injector is **disarmed by default**: every call site guards with
``if faults is not None``, so fault-free runs execute exactly the code
they executed before this layer existed — the cycle-exactness goldens
pin that bit-identically.
"""

from random import Random

from repro.errors import FaultPlanError

#: Every fault point a plan may inject, with the substrate operation it
#: fails.  Rates/limits naming anything else is a :class:`FaultPlanError`
#: at injector construction, not a silent no-op.
FAULT_POINTS = {
    "perf.record_drop":
        "a PEBS record is overwritten before userspace reads it",
    "perf.buffer_overflow":
        "a full per-thread PEBS buffer is lost at interrupt time",
    "ptrace.attach_timeout":
        "PM's ptrace attach round times out and must be retried",
    "ptrace.fork_fail":
        "fork() fails for one thread mid thread-to-process conversion",
    "shm.exhausted":
        "shm_open cannot create a region (EMFILE/ENOSPC analog)",
    "ptsb.commit_conflict":
        "a PTSB page commit races a concurrent writer and re-diffs",
    "ptsb.delayed_flush":
        "a consistency flush is delayed by a stalled commit path",
}

#: Per-point firing probabilities used by :func:`default_rates`; chosen
#: so a typical repair-suite run exercises every recovery path without
#: drowning the run in failures.
_BASE_RATES = {
    "perf.record_drop": 0.02,
    "perf.buffer_overflow": 0.10,
    "ptrace.attach_timeout": 0.25,
    "ptrace.fork_fail": 0.15,
    "shm.exhausted": 0.10,
    "ptsb.commit_conflict": 0.05,
    "ptsb.delayed_flush": 0.05,
}


def default_rates(intensity=1.0):
    """The stock rate table scaled by ``intensity`` (capped at 0.9)."""
    return {point: min(0.9, rate * intensity)
            for point, rate in _BASE_RATES.items()}


class FaultInjector:
    """Draws injection decisions for one run from per-point streams.

    ``rates`` maps fault-point names to firing probabilities in
    ``[0, 1]``; points absent from ``rates`` never fire.  ``limits``
    optionally caps the number of firings per point (the stream still
    advances past the cap, so a limited and an unlimited plan with the
    same seed agree on every decision up to the cap).
    """

    def __init__(self, seed=0, rates=None, limits=None):
        self.seed = seed
        self.rates = dict(rates or {})
        self.limits = dict(limits or {})
        unknown = [p for p in list(self.rates) + list(self.limits)
                   if p not in FAULT_POINTS]
        if unknown:
            raise FaultPlanError(
                f"unknown fault point(s) {sorted(set(unknown))}; "
                f"known: {sorted(FAULT_POINTS)}")
        self._streams = {
            point: Random(f"{seed}:{point}")
            for point in self.rates if self.rates[point] > 0}
        self.counts = {point: 0 for point in FAULT_POINTS}
        self.injections = []        # fired decisions, in firing order
        self._emitted = 0           # cursor for pending_events()

    # ------------------------------------------------------------------
    def fire(self, point, **context):
        """Whether the operation at ``point`` fails this time.

        ``context`` (cycle, tid, page...) is recorded with the decision
        when it fires; it never influences the draw.
        """
        stream = self._streams.get(point)
        if stream is None:
            return False
        if stream.random() >= self.rates[point]:
            return False
        limit = self.limits.get(point)
        if limit is not None and self.counts[point] >= limit:
            return False
        self.counts[point] += 1
        entry = {"seq": len(self.injections), "point": point}
        entry.update(context)
        self.injections.append(entry)
        return True

    # ------------------------------------------------------------------
    def pending_events(self):
        """Injections fired since the last call (observer flushing)."""
        new = self.injections[self._emitted:]
        self._emitted = len(self.injections)
        return new

    def fired_counts(self):
        """Nonzero firing counts by point (deterministic ordering)."""
        return {point: n for point, n in sorted(self.counts.items())
                if n}

    def log(self):
        """The full injection log as plain dicts (artifact payload)."""
        return [dict(entry) for entry in self.injections]
