"""Schedule policies: who runs next, made pluggable and seedable.

The engine calls :meth:`SchedulePolicy.choose` whenever more than one
thread is runnable, passing the candidates sorted by ``(ready_time,
seq)`` — index 0 is always what the default scheduler would have run.
The engine records every returned index in its decision log, so any
policy run (including a replay) leaves a trace that
:class:`ReplayPolicy` can re-execute bit-for-bit.

All randomness comes from one :class:`random.Random` seeded at
``reset``, so a (policy, seed) pair fully determines the schedule; the
decision log exists for replay robustness and shrinking, not because
the policies are irreproducible.
"""

import random

#: Op class names that mark lock/barrier/PTSB-commit edges.  TMI-style
#: runtimes commit their PTSBs at sync release/acquire boundaries, so
#: delaying around these ops is delaying around commit edges too.
SYNC_EDGE_OPS = frozenset({
    "MutexLock", "MutexUnlock", "BarrierWait", "CondWait", "CondSignal",
    "Fence",
})


class SchedulePolicy:
    """Base policy: override :meth:`choose`; optionally consume per-op
    events by setting ``wants_op_events`` and overriding
    :meth:`notify_op`."""

    name = "base"
    #: Seed recorded into traces (None for unseeded policies).
    seed = None
    #: When True the engine calls :meth:`notify_op` for every executed
    #: op (off by default: it costs a call per op).
    wants_op_events = False

    def reset(self, engine):
        """Called once at the start of ``Engine.run``."""

    def choose(self, candidates):
        """Pick the next thread; returns an index into ``candidates``
        (sorted by ready time then seq, so 0 is the default choice)."""
        raise NotImplementedError

    def notify_op(self, tid, op_kind):
        """Thread ``tid`` is executing an op of class name ``op_kind``."""


class DefaultPolicy(SchedulePolicy):
    """Reproduces the heap scheduler's order decision-for-decision.

    Exists so the decision-recording machinery can be pinned against
    the policy-less scheduling loop: a run under this policy is cycle-
    and result-identical to a policy-less run.
    """

    name = "default"

    def choose(self, candidates):
        return 0


class RandomTieBreakPolicy(SchedulePolicy):
    """Random choice among the near-ready candidates.

    With ``window=0`` only exact ready-time ties are shuffled; a
    positive window treats every candidate within ``window`` cycles of
    the earliest as tied, which perturbs real interleavings while
    keeping the timing plausible.
    """

    name = "random"

    def __init__(self, seed=0, window=5_000):
        self.seed = seed
        self.window = window
        self._rng = random.Random(seed)

    def reset(self, engine):
        self._rng = random.Random(self.seed)

    def choose(self, candidates):
        horizon = candidates[0].ready_time + self.window
        tied = 1
        while tied < len(candidates) and \
                candidates[tied].ready_time <= horizon:
            tied += 1
        if tied == 1:
            return 0
        return self._rng.randrange(tied)


class PctPolicy(SchedulePolicy):
    """PCT-style priority preemption (Burckhardt et al.).

    Every thread gets a random priority on first sight; the
    highest-priority runnable thread always runs.  At random op-count
    change points (probability ``change_prob`` per op) the running
    thread's priority drops below every other, forcing a preemption —
    the online variant of PCT's d-1 priority change points.
    """

    name = "pct"
    wants_op_events = True

    def __init__(self, seed=0, change_prob=1 / 512):
        self.seed = seed
        self.change_prob = change_prob
        self._rng = random.Random(seed)
        self._prio = {}
        self._floor = 0

    def reset(self, engine):
        self._rng = random.Random(self.seed)
        self._prio = {}
        self._floor = 0

    def _priority(self, tid):
        prio = self._prio.get(tid)
        if prio is None:
            prio = self._rng.random()
            self._prio[tid] = prio
        return prio

    def choose(self, candidates):
        best, best_prio = 0, None
        for i, thread in enumerate(candidates):
            prio = self._priority(thread.tid)
            if best_prio is None or prio > best_prio:
                best, best_prio = i, prio
        return best

    def notify_op(self, tid, op_kind):
        if self._rng.random() < self.change_prob:
            self._floor -= 1
            self._prio[tid] = self._floor


class DelayInjectionPolicy(SchedulePolicy):
    """Targeted delay around lock/barrier/PTSB-commit edges.

    After a thread executes a sync-edge op (lock, unlock, barrier,
    condvar, fence — the boundaries where TMI commits PTSBs), with
    probability ``prob`` that thread is held off the core for the next
    ``hold`` scheduling decisions, widening critical sections and
    commit windows so other threads run inside them.
    """

    name = "delay"
    wants_op_events = True

    def __init__(self, seed=0, prob=0.5, hold=24):
        self.seed = seed
        self.prob = prob
        self.hold = hold
        self._rng = random.Random(seed)
        self._held = {}
        self._decision = 0

    def reset(self, engine):
        self._rng = random.Random(self.seed)
        self._held = {}
        self._decision = 0

    def choose(self, candidates):
        self._decision += 1
        held = self._held
        for i, thread in enumerate(candidates):
            if held.get(thread.tid, 0) <= self._decision:
                return i
        return 0                     # everyone held: default order

    def notify_op(self, tid, op_kind):
        if op_kind in SYNC_EDGE_OPS and self._rng.random() < self.prob:
            self._held[tid] = self._decision + self.hold


class ReplayPolicy(SchedulePolicy):
    """Re-executes a recorded decision log exactly.

    An exhausted or over-long log falls back to the default choice
    (index 0) and out-of-range entries clamp, so *any* decision list is
    a total schedule — the property delta-debugging shrinking relies
    on.
    """

    name = "replay"

    def __init__(self, decisions):
        self.decisions = list(decisions)
        self._next = 0

    def reset(self, engine):
        self._next = 0

    def choose(self, candidates):
        if self._next >= len(self.decisions):
            return 0
        decision = self.decisions[self._next]
        self._next += 1
        if decision >= len(candidates):
            return len(candidates) - 1
        return decision


#: Perturbation policies selectable by name (CLI ``--policy``).
POLICY_NAMES = ("default", "random", "pct", "delay")

_FACTORIES = {
    "default": lambda spec: DefaultPolicy(),
    "random": lambda spec: RandomTieBreakPolicy(
        seed=spec.get("seed", 0), window=spec.get("window", 5_000)),
    "pct": lambda spec: PctPolicy(
        seed=spec.get("seed", 0),
        change_prob=spec.get("change_prob", 1 / 512)),
    "delay": lambda spec: DelayInjectionPolicy(
        seed=spec.get("seed", 0), prob=spec.get("prob", 0.5),
        hold=spec.get("hold", 24)),
    "replay": lambda spec: ReplayPolicy(spec["decisions"]),
}


def make_policy(spec):
    """Build a policy from a picklable spec dict.

    ``spec`` is ``{"policy": <name>, "seed": <int>, ...params}`` — the
    form carried inside schedule traces and across the worker-process
    boundary.  ``None`` returns None (no pick step).
    """
    if spec is None:
        return None
    if isinstance(spec, SchedulePolicy):
        return spec
    name = spec.get("policy")
    factory = _FACTORIES.get(name)
    if factory is None:
        raise KeyError(f"unknown schedule policy {name!r}; "
                       f"known: {sorted(_FACTORIES)}")
    return factory(spec)
