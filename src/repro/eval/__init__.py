"""Evaluation harness: systems, runners, and per-figure experiments."""

from repro.eval.runner import (BUDGET, DEADLOCK, HANG, INCOMPATIBLE,
                               INVALID, OK, RunOutcome, run_matrix,
                               run_workload)
from repro.eval.systems import SYSTEM_NAMES, make_runtime

__all__ = [
    "BUDGET", "DEADLOCK", "HANG", "INCOMPATIBLE", "INVALID", "OK",
    "RunOutcome", "run_matrix", "run_workload", "SYSTEM_NAMES",
    "make_runtime",
]
