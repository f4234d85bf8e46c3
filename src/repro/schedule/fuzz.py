"""Seeded schedule fuzzing with shrinking repro records.

:func:`fuzz_workload` runs one (workload, system) cell under many
seeded perturbation policies, fanned out across worker processes.
Every interleaving is checked two ways:

- the vector-clock race sanitizer (``sanitize=True`` runs), and
- the workload's final-state oracle: for race-free programs whose
  shared updates commute, the :meth:`Workload.final_state` digest must
  match the default schedule's digest in every legal interleaving.

A failing seed's decision log is shrunk by delta debugging
(:mod:`repro.schedule.shrink`) — each candidate log is replayed and
kept only if the *same* failure (kind and race signatures) recurs —
and saved under ``results/fuzz/`` as a
:class:`~repro.eval.record.RunRecord` whose cell replays the shrunk
log.

:func:`smoke_fuzz` is the CI entry point: a bounded budget, a positive
control (the seeded fuzzer must find racy-flag's handoff race and the
replayed record must reproduce the identical finding) and a negative
control (a race-free workload must come back clean).
"""

import time
from dataclasses import dataclass, field

from repro.eval.parallel import job_count, run_cells
from repro.eval.record import (RACE, RunRecord, SmokeResult,
                               classify_outcome, injection_counts,
                               race_signatures, replay)
from repro.eval.runner import run_workload
from repro.schedule.shrink import shrink_decisions


@dataclass
class FuzzFinding:
    """One failing seed, with its (possibly shrunk) decision log."""

    workload: str
    system: str
    policy: str
    seed: int
    kind: str
    detail: str = ""
    signatures: list = field(default_factory=list)
    decisions: list = field(default_factory=list)
    #: Fired-injection counts of the run the decision log replays.
    injections: dict = field(default_factory=dict)
    #: Decision count before shrinking (None when not shrunk).
    shrunk_from: object = None
    #: Path of the saved RunRecord artifact.
    artifact: object = None


@dataclass
class FuzzReport:
    """Everything one :func:`fuzz_workload` call learned."""

    workload: str
    system: str
    policy: str
    scale: float
    seeds: list
    max_cycles: object
    findings: list
    baseline_status: str
    baseline_signatures: list
    elapsed: float
    budget_exhausted: bool = False

    @property
    def ok(self):
        return not self.findings

    def summary_lines(self):
        head = (f"fuzz {self.workload}/{self.system} policy={self.policy}"
                f" seeds={len(self.seeds)} findings={len(self.findings)}"
                f" ({self.elapsed:.1f}s"
                + (", budget exhausted)" if self.budget_exhausted else ")"))
        lines = [head]
        for f in self.findings:
            shrunk = ""
            if f.shrunk_from is not None:
                shrunk = f" (shrunk {f.shrunk_from}->{len(f.decisions)})"
            lines.append(f"  seed {f.seed}: {f.kind}{shrunk} -> {f.artifact}")
            if f.detail:
                lines.append(f"    {f.detail}")
        return lines


def _policy_spec(policy, seed):
    if isinstance(policy, dict):
        spec = dict(policy)
        spec["seed"] = seed
        return spec
    return {"policy": policy, "seed": seed}


def _policy_name(policy):
    if isinstance(policy, dict):
        return policy.get("policy", "?")
    return policy


def fuzz_workload(name, system="pthreads", policy="random", seeds=16,
                  scale=0.1, nthreads=None, variant=None, config=None,
                  max_cycles=None, budget=None, jobs=None, out_dir=None,
                  sanitize=True, shrink=True, max_shrinks=4,
                  shrink_attempts=48, faults=None):
    """Fuzz one (workload, system) cell over seeded schedules.

    ``seeds`` is an int (``range(seeds)``) or an explicit iterable;
    ``policy`` a name from :data:`~repro.schedule.policy.POLICY_NAMES`
    or a spec dict whose ``seed`` gets overridden per run.  ``budget``
    is a wall-clock bound in seconds: no new seed batch launches after
    it expires (in-flight batches finish).  ``max_cycles`` defaults to
    a generous multiple of the default schedule's cycle count, so a
    livelocking interleaving surfaces as a ``budget`` finding with a
    replayable record instead of hanging the fuzzer.  ``config`` is a
    dict of :class:`~repro.core.config.TmiConfig` overrides, the form a
    record's cell stores.

    ``faults`` cross-fuzzes schedules against a deterministic fault
    spec (``{"seed", "rates", "limits"}``): every fuzzed cell runs
    with it armed while the oracle stays fault-free, so a fault
    sequence that corrupts final state surfaces as a
    :data:`~repro.eval.record.STATE_MISMATCH` finding whose record
    replays both the schedule and the faults.

    Returns a :class:`FuzzReport`; every finding's record is already
    written (``results/fuzz/`` unless ``out_dir``).
    """
    start = time.monotonic()
    if isinstance(seeds, int):
        seeds = list(range(seeds))
    else:
        seeds = list(seeds)
    base = dict(name=name, system=system, scale=scale, config=config,
                variant=variant, nthreads=nthreads)
    baseline = run_workload(**base, sanitize=sanitize, collect_state=True)
    baseline_state = baseline.final_state
    baseline_signatures = race_signatures(baseline.analysis)
    if max_cycles is None:
        if baseline.cycles:
            max_cycles = max(1_000_000, 25 * baseline.cycles)
        else:
            max_cycles = 500_000_000
    cell = dict(base, sanitize=sanitize, collect_state=True,
                max_cycles=max_cycles)
    if faults is not None:
        cell["faults"] = dict(faults)

    findings = []
    ran = []
    budget_exhausted = False
    batch = max(1, job_count(jobs))
    pending = list(seeds)
    while pending:
        if budget is not None and time.monotonic() - start >= budget:
            budget_exhausted = True
            break
        chunk, pending = pending[:batch], pending[batch:]
        cells = [dict(cell, schedule=_policy_spec(policy, seed))
                 for seed in chunk]
        for seed, outcome in zip(chunk, run_cells(cells, jobs=jobs)):
            ran.append(seed)
            kind, detail, signatures = classify_outcome(
                outcome, baseline_state)
            if kind is None:
                continue
            decisions = list((outcome.trace or {}).get("decisions", ()))
            findings.append(FuzzFinding(
                workload=name, system=system, policy=_policy_name(policy),
                seed=seed, kind=kind, detail=detail,
                signatures=signatures, decisions=decisions,
                injections=injection_counts(outcome)))

    deadline = (start + budget) if budget is not None else None
    shrunk = 0
    for finding in findings:
        if shrink and shrunk < max_shrinks and finding.decisions:
            original = len(finding.decisions)
            _shrink_finding(finding, cell, baseline_state,
                            shrink_attempts, deadline)
            finding.shrunk_from = original
            shrunk += 1
        record = RunRecord(
            cell=dict(cell, schedule={"policy": "replay",
                                      "decisions": finding.decisions}),
            oracle=system,
            failure={"kind": finding.kind, "detail": finding.detail,
                     "signatures": [list(s) for s in finding.signatures]},
            injections=finding.injections,
            origin={"campaign": "fuzz", "policy": finding.policy,
                    "seed": finding.seed})
        finding.artifact = record.save(out_dir=out_dir)

    return FuzzReport(
        workload=name, system=system, policy=_policy_name(policy),
        scale=scale, seeds=ran, max_cycles=max_cycles, findings=findings,
        baseline_status=baseline.status,
        baseline_signatures=baseline_signatures,
        elapsed=time.monotonic() - start,
        budget_exhausted=budget_exhausted)


def _shrink_finding(finding, cell, baseline_state, attempts, deadline):
    """Shrink one finding's decision log in place; the failure must
    recur with the same kind *and* the same race signatures for a
    candidate to be accepted (the replay identity the record promises).
    The finding keeps the injection counts of the log it ends with."""
    target_kind = finding.kind
    target_signatures = finding.signatures
    accepted = {}

    def reproduces(candidate):
        if deadline is not None and time.monotonic() >= deadline:
            return False
        outcome = run_workload(**dict(
            cell, schedule={"policy": "replay",
                            "decisions": list(candidate)}))
        kind, _, signatures = classify_outcome(outcome, baseline_state)
        if kind == target_kind and signatures == target_signatures:
            accepted[tuple(candidate)] = injection_counts(outcome)
            return True
        return False

    finding.decisions = shrink_decisions(finding.decisions, reproduces,
                                         max_attempts=attempts)
    # the input log minus its trailing zeros replays the original run
    finding.injections = accepted.get(tuple(finding.decisions),
                                      finding.injections)


# ----------------------------------------------------------------------
# CI smoke fuzz
# ----------------------------------------------------------------------

def _smoke_result(checks, reports):
    """The smoke's verdicts; a failing one lists every finding's
    record, because ``python -m repro.eval.cli replay <path>``
    re-executes the exact interleaving.  A passing one stays terse
    (the positive control finds races by design)."""
    result = SmokeResult(checks=checks, reports=reports)
    artifacts = [
        f"  {phase} seed {f.seed} ({f.kind}) -> {f.artifact}"
        for phase, report in reports.items()
        for f in report.findings if f.artifact]
    if not result.ok and artifacts:
        result.explanation = ["replay artifacts:"] + artifacts
    return result


def smoke_fuzz(seeds=16, budget=60.0, jobs=None, out_dir=None):
    """Bounded CI smoke: the fuzzer must *work*, fast.

    - positive control: seeded fuzzing of ``racy-flag`` (pthreads,
      buggy variant) must find the volatile-flag handoff race, and
      replaying the emitted record must reproduce the identical
      sanitizer finding;
    - negative control: a race-free workload (histogram, small scale)
      must produce zero findings under the same policy.
    """
    start = time.monotonic()
    checks = []
    reports = {}

    racy_budget = None if budget is None else budget * 0.6
    racy = fuzz_workload(
        "racy-flag", system="pthreads", policy="random", seeds=seeds,
        scale=1.0, budget=racy_budget, jobs=jobs, out_dir=out_dir,
        max_shrinks=1)
    reports["racy-flag"] = racy
    races = [f for f in racy.findings if f.kind == RACE]
    checks.append((
        "racy-flag: fuzz finds the handoff race", bool(races),
        f"{len(races)} racing seed(s) out of {len(racy.seeds)} run"))

    if races:
        matches, detail, _ = replay(races[0].artifact)
        checks.append((
            "racy-flag: artifact replay reproduces the finding",
            matches, detail))
    else:
        checks.append((
            "racy-flag: artifact replay reproduces the finding", False,
            "no race artifact to replay"))

    clean_budget = None
    if budget is not None:
        clean_budget = max(5.0, (start + budget) - time.monotonic())
    clean_seeds = max(1, min(8, seeds if isinstance(seeds, int)
                             else len(list(seeds))))
    clean = fuzz_workload(
        "histogram", system="pthreads", policy="random",
        seeds=clean_seeds, scale=0.05, budget=clean_budget, jobs=jobs,
        out_dir=out_dir, shrink=False)
    reports["histogram"] = clean
    checks.append((
        "histogram: race-free workload fuzzes clean", clean.ok,
        f"{len(clean.findings)} finding(s) over {len(clean.seeds)} "
        f"seed(s)"))

    return _smoke_result(checks, reports)
