"""Deterministic fault injection and chaos harness (robustness layer).

``FaultInjector`` draws seeded per-point failure decisions at named
oskit/runtime fault points from a ``{"seed", "rates", "limits"}`` spec
(``run_workload(faults=...)``); ``chaos_repair_suite``/``chaos_smoke``
run fault-plan campaigns over the repair suite against the pthreads
final-state oracle, and save every plan as a
:class:`~repro.eval.record.RunRecord` that replays it.  See
``docs/ROBUSTNESS.md``.

These faults perturb the *simulated* substrate.  Harness faults
(poison cells, dead workers) are the tests' to inject, by substituting
``repro.eval.parallel._run_cell``, which forked pool workers inherit.
"""

from repro.faults.chaos import (ChaosCell, ChaosReport,
                                chaos_repair_suite, chaos_smoke,
                                default_plans)
from repro.faults.inject import FAULT_POINTS, FaultInjector, default_rates

__all__ = [
    "FAULT_POINTS", "ChaosCell", "ChaosReport", "FaultInjector",
    "chaos_repair_suite", "chaos_smoke", "default_plans",
    "default_rates",
]
