"""Versioned ``repro-repair-plan/1`` artifacts.

A plan artifact is the planner's full output -- findings, chosen
transformations, allocation-relative relocations, the static cost
model's scoring, and the predicted residual sharing -- as one
deterministic JSON document (sorted keys, stable field order), so runs
of the same workload at the same scale produce byte-identical files.
Artifacts live under ``results/repair/`` next to the fuzz and chaos
artifact trees.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.repair.planner import (LineRepair, Relocation,
                                           RepairPlan)

#: Format tag guarding load/save compatibility.
PLAN_FORMAT = "repro-repair-plan/1"


def plan_to_dict(plan: RepairPlan) -> dict:
    """Serializable dict form of a RepairPlan (stable key order)."""
    return {
        "format": PLAN_FORMAT,
        "workload": plan.workload,
        "variant": plan.variant,
        "nthreads": plan.nthreads,
        "arena_bytes": plan.arena_bytes,
        "cost": dict(plan.cost),
        "lines": [
            {
                "line_va": line.line_va,
                "transformation": line.transformation,
                "fixed": line.fixed,
                "reason": line.reason,
                "atoms_moved": line.atoms_moved,
                "bytes_moved": line.bytes_moved,
            }
            for line in plan.lines
        ],
        "relocations": [
            {
                "ordinal": r.ordinal,
                "offset": r.offset,
                "length": r.length,
                "owner": r.owner,
                "dest": r.dest,
                "line_va": r.line_va,
            }
            for r in plan.relocations
        ],
    }


def plan_from_dict(data: dict) -> RepairPlan:
    """Reconstruct a RepairPlan from its dict form."""
    tag = data.get("format")
    if tag != PLAN_FORMAT:
        raise ValueError(
            f"not a {PLAN_FORMAT} artifact (format={tag!r})")
    return RepairPlan(
        workload=data["workload"],
        variant=data["variant"],
        nthreads=data["nthreads"],
        arena_bytes=data["arena_bytes"],
        cost=dict(data["cost"]),
        lines=[LineRepair(**line) for line in data["lines"]],
        relocations=[Relocation(**r) for r in data["relocations"]],
    )


def save_plan(plan: RepairPlan, path: object = None) -> Path:
    """Write the plan under ``results/repair/``; returns the path."""
    if path is None:
        from repro.eval.report import results_dir
        directory = Path(results_dir()) / "repair"
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{plan.workload}-plan.json"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(plan_to_dict(plan), indent=2,
                               sort_keys=True) + "\n")
    return path


def load_plan(path: object) -> RepairPlan:
    """Load a ``repro-repair-plan/1`` artifact."""
    return plan_from_dict(json.loads(Path(path).read_text()))

