"""Cycle-exactness regression goldens.

``golden_pr1.json`` holds simulated cycle counts, HITM totals, and op
counters for one small workload per suite family (phoenix, parsec,
splash2x, boost, apps/leveldb), each under plain pthreads and full
tmi-protect.  The numbers were captured *before* the interpreter fast
paths landed (owner micro-cache, type-keyed dispatch, batched
sequence ops, translation cache, parallel grid runner), so this test
pins the property those optimizations promised: they change how fast
the simulator runs, never what it computes.

``golden_schedules.json`` holds, for seeded schedule policies on a few
racy and repair cells, the number of schedule decisions, the sha256 of
the decision list and the cycles, so an engine change that moves a
decision point fails here rather than silently re-rolling every
fuzzed schedule.

If a change legitimately alters simulated behaviour (a cost-model or
coherence change, not an optimization), regenerate both files::

    PYTHONPATH=src python tests/integration/test_cycle_exactness.py

and explain the regeneration in the commit message.
"""

import hashlib
import json
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).with_name("golden_pr1.json")
GOLDENS = json.loads(GOLDEN_PATH.read_text())
SCHEDULE_GOLDEN_PATH = Path(__file__).with_name("golden_schedules.json")
SCHEDULE_GOLDENS = json.loads(SCHEDULE_GOLDEN_PATH.read_text())

#: Fields every run must reproduce bit-for-bit.
EXACT_FIELDS = ("status", "cycles", "hitm_loads", "hitm_stores",
                "data_ops", "sync_ops", "validated")


#: Hint printed when goldens drift; keep it copy-pasteable.
REGEN_HINT = ("regenerate with: PYTHONPATH=src python "
              "tests/integration/test_cycle_exactness.py "
              "(and explain why in the commit message)")


def observe(name, system, scale, schedule=None):
    from repro.eval.runner import run_workload
    outcome = run_workload(name, system, scale=scale, schedule=schedule)
    result = outcome.result
    return {
        "status": outcome.status,
        "cycles": result.cycles if result else None,
        "hitm_loads": result.hitm_loads if result else None,
        "hitm_stores": result.hitm_stores if result else None,
        "data_ops": result.data_ops if result else None,
        "sync_ops": result.sync_ops if result else None,
        "validated": result.validated if result else None,
    }


def observe_schedule(name, system, scale, schedule):
    """The pinned facts of one seeded policy run: its status, cycles,
    decision count and the sha256 of its decision list."""
    from repro.eval.runner import run_workload
    outcome = run_workload(name, system, scale=scale, schedule=schedule)
    decisions = outcome.trace["decisions"]
    return {
        "status": outcome.status,
        "cycles": outcome.result.cycles if outcome.result else None,
        "decisions": len(decisions),
        "sha256": hashlib.sha256(
            json.dumps(decisions).encode()).hexdigest(),
    }


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_workload_is_cycle_exact(key):
    golden = GOLDENS[key]
    name, system = key.split("/")
    got = observe(name, system, golden["scale"])
    mismatches = {field: (got[field], golden[field])
                  for field in EXACT_FIELDS
                  if got[field] != golden[field]}
    assert not mismatches, (
        f"{key} diverged from pre-optimization golden "
        f"(got, want): {mismatches}; {REGEN_HINT}")


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_default_policy_is_byte_identical(key):
    """SchedulePolicy('default') must match the policy-less scheduler —
    pinned against the same goldens, so the pick step a policy adds to
    the scheduling loop, and the per-access decision points it makes
    continuations yield at, provably cost zero simulated cycles."""
    golden = GOLDENS[key]
    name, system = key.split("/")
    got = observe(name, system, golden["scale"],
                  schedule={"policy": "default"})
    mismatches = {field: (got[field], golden[field])
                  for field in EXACT_FIELDS
                  if got[field] != golden[field]}
    assert not mismatches, (
        f"{key} under the default schedule policy diverged from the "
        f"policy-less golden (got, want): {mismatches}")


@pytest.mark.parametrize("key", sorted(SCHEDULE_GOLDENS))
def test_seeded_schedule_is_pinned(key):
    """A seeded policy run makes the same decisions, at the same
    points, for the same cycles as when the golden was recorded."""
    golden = SCHEDULE_GOLDENS[key]
    name, system, _policy = key.split("/")
    got = observe_schedule(name, system, golden["scale"],
                           golden["schedule"])
    mismatches = {field: (got[field], golden[field]) for field in got
                  if got[field] != golden[field]}
    assert not mismatches, (
        f"{key} schedule diverged from its golden (got, want): "
        f"{mismatches}; {REGEN_HINT}")


def test_goldens_are_fresh():
    """Structural freshness: every golden entry carries every pinned
    field and matches the current workload registry, so a stale or
    hand-edited golden file fails loudly with the regeneration hint."""
    from repro.workloads import all_names
    from repro.workloads import get as get_workload
    assert GOLDENS, f"golden file is empty; {REGEN_HINT}"
    names = set(all_names())
    for key, golden in GOLDENS.items():
        name, system = key.split("/")
        assert name in names, (
            f"golden {key} references unknown workload; {REGEN_HINT}")
        missing = [field for field in EXACT_FIELDS + ("scale", "suite")
                   if field not in golden]
        assert not missing, (
            f"golden {key} is missing fields {missing}; {REGEN_HINT}")
        assert golden["suite"] == get_workload(name).suite, (
            f"golden {key} suite drifted; {REGEN_HINT}")
        assert golden["status"] == "ok" and golden["validated"], (
            f"golden {key} pins a failing run; {REGEN_HINT}")


def _regenerate():
    from repro.eval.runner import run_workload
    from repro.workloads import get as get_workload
    fresh = {}
    for key, golden in sorted(GOLDENS.items()):
        name, system = key.split("/")
        entry = observe(name, system, golden["scale"])
        entry["scale"] = golden["scale"]
        entry["suite"] = get_workload(name).suite
        fresh[key] = entry
    GOLDEN_PATH.write_text(json.dumps(fresh, indent=1, sort_keys=True)
                           + "\n")
    print(f"rewrote {GOLDEN_PATH} ({len(fresh)} entries)")
    fresh = {}
    for key, golden in sorted(SCHEDULE_GOLDENS.items()):
        name, system, _policy = key.split("/")
        entry = observe_schedule(name, system, golden["scale"],
                                 golden["schedule"])
        entry["scale"] = golden["scale"]
        entry["schedule"] = golden["schedule"]
        fresh[key] = entry
    SCHEDULE_GOLDEN_PATH.write_text(
        json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"rewrote {SCHEDULE_GOLDEN_PATH} ({len(fresh)} entries)")


if __name__ == "__main__":
    _regenerate()
