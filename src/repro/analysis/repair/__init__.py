"""Static false-sharing repair: planner, rewriter, cost, artifacts.

The repair subsystem turns the linter's findings into executable layout
transformations: :func:`plan_program` synthesizes a
:class:`RepairPlan` from one abstract extraction (no simulation), and
:func:`rewrite_program` applies it mechanically to a fresh Program so
the ``static-repaired`` / ``static-tmi`` eval systems can run it.
"""

from repro.analysis.repair.artifact import (PLAN_FORMAT, load_plan,
                                            plan_from_dict, plan_to_dict,
                                            save_plan)
from repro.analysis.repair.cost import score_plan
from repro.analysis.repair.planner import (ALIGN, Atom, LineRepair,
                                           NONE, PAD, REORDER,
                                           Relocation, RepairPlan,
                                           SPLIT, plan_program,
                                           plan_workload)
from repro.analysis.repair.rewriter import (LayoutRewriter, RemapView,
                                            RewriteStats,
                                            rewrite_program)

__all__ = [
    "ALIGN", "Atom", "LayoutRewriter", "LineRepair", "NONE", "PAD",
    "PLAN_FORMAT", "REORDER", "RemapView", "Relocation", "RepairPlan",
    "RewriteStats", "SPLIT", "load_plan", "plan_from_dict",
    "plan_program", "plan_to_dict", "plan_workload", "rewrite_program",
    "save_plan", "score_plan",
]
