"""Chaos runs: seeded fault plans over the repair suite.

A fault plan is a :class:`~repro.eval.record.RunRecord` whose cell
arms a seeded ``{"seed", "rates", "limits"}`` fault spec and whose
oracle is ``pthreads``.  :func:`chaos_repair_suite` runs many plans
across the Figure 9 repair workloads on the hardened grid and holds
every cell to the robustness invariant: *any* fault sequence must
leave the workload's final state equal to the oracle's fault-free
final state (the metamorphic oracle via ``Workload.final_state``).
Each cell's verdict is

- ``ok`` — completed, state matches, the degradation machinery never
  had to engage;
- ``degraded`` — completed and state matches, but the runtime took
  visible damage (failed repair episodes, ladder transitions,
  blacklisted pages) and recovered;
- ``fail`` — state diverged, the run died, or the harness cell itself
  failed/timed out.

Every plan is saved (with its injection counts and failure) under
``results/chaos/``, and failing plans are immediately re-run to confirm
they replay identically — a chaos finding that does not reproduce is a
determinism bug, which is its own finding.

:func:`chaos_smoke` is the CI entry point: a small bounded plan set
with a positive control (injections must actually fire) and a replay
identity check.
"""

import time
from dataclasses import dataclass

from repro.eval.parallel import CELL_OK, run_cells_recorded
from repro.eval.record import (RunRecord, SmokeResult, classify_outcome,
                               injection_counts, replay)
from repro.eval.runner import run_workload
from repro.faults.inject import default_rates
from repro.workloads import repair_suite_names

#: Cell verdicts, best to worst.
VERDICT_OK = "ok"
VERDICT_DEGRADED = "degraded"
VERDICT_FAIL = "fail"

#: Runtime-report keys whose nonzero value marks a cell ``degraded``.
_DAMAGE_KEYS = ("degradations", "repair_episode_failures",
                "pages_blacklisted")


def default_plans(seeds=16, workloads=None, system="tmi-protect",
                  scale=0.1, nthreads=None, schedule=None):
    """Build the stock chaos plan set, as unrun records.

    Seeds cycle over the repair-suite workloads with rate intensities
    stepping through 0.5x/1x/1.5x/2x, so sixteen plans exercise every
    workload family and every fault point at several pressures.
    ``seeds`` is an int (``range(seeds)``) or an explicit iterable;
    ``schedule`` (a policy spec) perturbs every plan's schedule too.
    """
    workloads = list(workloads or repair_suite_names())
    seeds = range(seeds) if isinstance(seeds, int) else seeds
    plans = []
    for seed in seeds:
        cell = {"name": workloads[seed % len(workloads)],
                "system": system, "scale": scale, "collect_state": True,
                "faults": {"seed": seed,
                           "rates": default_rates(0.5 + 0.5 * (seed % 4)),
                           "limits": {}}}
        if nthreads is not None:
            cell["nthreads"] = nthreads
        if schedule is not None:
            cell["schedule"] = dict(schedule)
        plans.append(RunRecord(cell=cell, oracle="pthreads",
                               origin={"campaign": "chaos", "seed": seed}))
    return plans


@dataclass
class ChaosCell:
    """One plan's run, classified against its oracle."""

    #: The plan, with its injection counts and failure filled in.
    plan: RunRecord
    verdict: str
    detail: str = ""
    #: Harness-level CellRecord of the run.
    harness: object = None
    #: Whether a re-run reproduced the identical outcome (failing
    #: cells only; None = not checked).
    replay_identical: object = None
    #: Saved plan artifact path.
    artifact: object = None


@dataclass
class ChaosReport:
    """Everything one :func:`chaos_repair_suite` call learned."""

    cells: list
    elapsed: float

    @property
    def ok(self):
        """True when no cell failed (``ok``/``degraded`` only)."""
        return all(c.verdict != VERDICT_FAIL for c in self.cells)

    def verdict_counts(self):
        """{verdict: count} over all cells (deterministic ordering)."""
        totals = {VERDICT_OK: 0, VERDICT_DEGRADED: 0, VERDICT_FAIL: 0}
        for cell in self.cells:
            totals[cell.verdict] += 1
        return totals

    def summary_lines(self):
        """Human-readable per-cell verdicts plus the totals line."""
        totals = self.verdict_counts()
        lines = [f"chaos: {len(self.cells)} plan(s) in "
                 f"{self.elapsed:.1f}s -> "
                 + ", ".join(f"{k}={v}" for k, v in totals.items())]
        for cell in self.cells:
            plan = cell.plan
            fired = sum(plan.injections.values())
            line = (f"  seed {plan.origin.get('seed')} "
                    f"{plan.cell['name']}/{plan.cell['system']}:"
                    f" {cell.verdict} ({fired} injection(s))")
            if cell.replay_identical is not None:
                line += (" [replays identically]"
                         if cell.replay_identical
                         else " [REPLAY DIVERGED]")
            lines.append(line)
            if cell.detail:
                lines.append(f"    {cell.detail}")
            if cell.artifact:
                lines.append(f"    artifact: {cell.artifact}")
        return lines


def _classify(plan, harness, oracle_state):
    """``(verdict, detail, failure)`` for one plan's harness record:
    the shared classifier, plus the runtime's damage report."""
    if harness.status != CELL_OK:
        kind, detail, signatures = harness.status, harness.error, []
    elif oracle_state is None:
        kind, signatures = "no-oracle", []
        detail = (f"no fault-free {plan.oracle} oracle for "
                  f"{plan.cell['name']}")
    else:
        kind, detail, signatures = classify_outcome(harness.outcome,
                                                    oracle_state)
    if kind is not None:
        return (VERDICT_FAIL, f"{kind}: {detail}",
                {"kind": kind, "detail": detail,
                 "signatures": signatures})
    outcome = harness.outcome
    report = (outcome.result.runtime_report
              if outcome.result is not None else None) or {}
    parts = [f"{key}={report[key]}" for key in sorted(_DAMAGE_KEYS)
             if report.get(key)]
    level = report.get("ladder_level")
    if level not in (None, "protect"):
        parts.append(f"ladder_level={level}")
    if parts:
        return VERDICT_DEGRADED, "recovered with " + ", ".join(parts), {}
    return VERDICT_OK, "", {}


def _outcome_fingerprint(outcome):
    """What a replay must reproduce exactly: simulated cycles, the
    injection record, and the final-state digest."""
    return (outcome.status,
            outcome.result.cycles if outcome.result else None,
            outcome.faults, outcome.final_state)


def chaos_repair_suite(seeds=16, workloads=None, scale=0.1,
                       nthreads=None, jobs=None, out_dir=None,
                       timeout=None):
    """Run a seeded chaos campaign; returns a :class:`ChaosReport`.

    ``seeds`` is an int / iterable for :func:`default_plans`, or an
    explicit list of plan records.  Each distinct oracle cell runs
    once; the plans fan out on the hardened grid
    (:func:`~repro.eval.parallel.run_cells_recorded`) with ``timeout``
    seconds of wall clock per cell.  Every plan is saved, and every
    failing plan is re-run once and checked for an identical outcome.
    """
    start = time.monotonic()
    if not isinstance(seeds, int):
        # a generator must not lose the item the type test looks at
        seeds = list(seeds)
    if seeds and not isinstance(seeds, int) \
            and isinstance(seeds[0], RunRecord):
        plans = seeds
    else:
        plans = default_plans(seeds, workloads=workloads, scale=scale,
                              nthreads=nthreads)

    oracle_cells = []
    for plan in plans:
        if plan.oracle_cell() not in oracle_cells:
            oracle_cells.append(plan.oracle_cell())
    oracle_states = [
        record.outcome.final_state
        if record.status == CELL_OK and record.outcome.ok else None
        for record in run_cells_recorded(oracle_cells, jobs=jobs,
                                         timeout=timeout)]

    records = run_cells_recorded([plan.cell for plan in plans],
                                 jobs=jobs, timeout=timeout)
    cells = []
    for plan, harness in zip(plans, records):
        oracle_state = oracle_states[oracle_cells.index(
            plan.oracle_cell())]
        verdict, detail, plan.failure = _classify(plan, harness,
                                                  oracle_state)
        outcome = harness.outcome
        plan.injections = injection_counts(outcome)
        cell = ChaosCell(plan=plan, verdict=verdict, detail=detail,
                         harness=harness)
        if verdict == VERDICT_FAIL and harness.status == CELL_OK:
            rerun = run_workload(**plan.cell)
            cell.replay_identical = (_outcome_fingerprint(rerun)
                                     == _outcome_fingerprint(outcome))
        cell.artifact = plan.save(out_dir=out_dir)
        cells.append(cell)
    return ChaosReport(cells=cells,
                       elapsed=time.monotonic() - start)


# ----------------------------------------------------------------------
# CI chaos smoke
# ----------------------------------------------------------------------

def chaos_smoke(seeds=6, scale=0.05, jobs=None, out_dir=None,
                timeout=None):
    """Bounded CI chaos smoke: the fault machinery must *work*, fast.

    - every cell must come back ``ok`` or cleanly ``degraded`` with
      its final state equal to the pthreads oracle's;
    - positive control: the plans must actually inject (a chaos run
      where nothing fires tests nothing);
    - the busiest plan's saved record must replay identically.
    """
    plans = default_plans(seeds, workloads=("histogram", "histogramfs"),
                          scale=scale)
    report = chaos_repair_suite(plans, jobs=jobs, out_dir=out_dir,
                                timeout=timeout)
    checks = []
    totals = report.verdict_counts()
    checks.append((
        "chaos cells survive (ok or cleanly degraded)", report.ok,
        ", ".join(f"{k}={v}" for k, v in totals.items())))
    fired = sum(sum(c.plan.injections.values()) for c in report.cells)
    checks.append((
        "fault plans actually inject", fired > 0,
        f"{fired} injection(s) across {len(report.cells)} cell(s)"))
    busiest = max(report.cells, default=None,
                  key=lambda c: sum(c.plan.injections.values()))
    if busiest is not None and busiest.plan.injections:
        matches, detail, _ = replay(busiest.artifact)
        checks.append(("busiest plan replays identically", matches,
                       f"seed {busiest.plan.origin['seed']}: {detail}"))
    else:
        checks.append(("busiest plan replays identically", False,
                       "no plan fired any injection"))
    return SmokeResult(checks=checks, reports={"chaos": report},
                       explanation=report.summary_lines())
