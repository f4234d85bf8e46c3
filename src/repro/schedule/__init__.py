"""Schedule exploration: pluggable scheduling policies, decision-log
replay, and a seeded interleaving fuzzer.

The engine executes exactly one interleaving per workload by default
(smallest ready time, insertion-order tie-break).  The paper's claims —
TMI preserves pthreads semantics, PTSB commits respect happens-before —
are universally quantified over schedules, so this package makes the
schedule a seeded, recordable *input*:

- :class:`SchedulePolicy` implementations perturb thread selection at
  op boundaries (random bounded reordering, PCT-style priority
  preemption, targeted delay around lock/barrier/commit edges);
- every policy run records its decision log (``RunOutcome.trace``),
  and :class:`ReplayPolicy` (``{"policy": "replay", "decisions":
  [...]}``) re-executes it exactly;
- :func:`fuzz_workload` fans seeds out over worker processes, runs each
  interleaving through the race sanitizer and the workload's
  final-state oracle, and shrinks failing decision logs to a minimal
  :class:`~repro.eval.record.RunRecord` under ``results/fuzz/``, which
  :func:`repro.eval.record.replay` re-executes.
"""

from repro.schedule.fuzz import (FuzzFinding, FuzzReport, fuzz_workload,
                                 smoke_fuzz)
from repro.schedule.policy import (POLICY_NAMES, DefaultPolicy,
                                   DelayInjectionPolicy, PctPolicy,
                                   RandomTieBreakPolicy, ReplayPolicy,
                                   SchedulePolicy, make_policy)
from repro.schedule.shrink import shrink_decisions

__all__ = [
    "SchedulePolicy", "DefaultPolicy", "RandomTieBreakPolicy",
    "PctPolicy", "DelayInjectionPolicy", "ReplayPolicy", "make_policy",
    "POLICY_NAMES", "shrink_decisions", "fuzz_workload", "smoke_fuzz",
    "FuzzFinding", "FuzzReport",
]
