"""Run records: the one replayable artifact of fuzz and chaos campaigns.

Every cell is a deterministic simulation, so the ``run_workload`` cell
that produced a failure is already its complete repro.  A
:class:`RunRecord` is that cell plus what judges it:

- ``cell`` re-executes the run.  A fuzz finding's schedule is a replay
  of its (shrunk) decision log, a chaos plan's fault spec is stored as
  it is, and one cell can carry both;
- ``oracle`` names the system whose fault-free, default-schedule final
  state the run is checked against (:meth:`RunRecord.oracle_cell`);
- ``failure`` is ``{kind, detail, signatures}``, empty for a clean run;
- ``injections`` are the nonzero fired-injection counts by fault point.

:func:`replay` re-runs a record and classifies the result with the
campaigns' one classifier, :func:`classify_outcome`.  Records save as
``repro-run-record/1`` JSON under ``results/fuzz/`` or
``results/chaos/``; any other format tag is refused with a
:class:`~repro.errors.RecordFormatError` before anything runs.
"""

import json
import os
from dataclasses import asdict, dataclass, field

from repro.errors import RecordFormatError
from repro.eval.report import results_dir
from repro.eval.runner import OK, run_workload

#: Versioned artifact format tag.
RECORD_FORMAT = "repro-run-record/1"

#: Failure kinds beyond the runner statuses (budget/deadlock/hang/
#: invalid pass through as their own kinds).
RACE = "race"
STATE_MISMATCH = "state-mismatch"

#: Cell keys that perturb a run; the oracle runs without them.
_PERTURBATIONS = ("schedule", "faults", "max_cycles", "sanitize")


def race_signatures(report):
    """Canonical, order-independent signatures of a RaceReport's
    findings: sorted [rule, label, line_va] triples."""
    if report is None:
        return []
    return sorted([f.rule, f.label, f.line_va]
                  for f in report.findings)


def injection_counts(outcome):
    """Nonzero fired-injection counts by point of a run (empty when it
    armed no faults, or never produced an outcome)."""
    return dict(((outcome and outcome.faults) or {}).get("counts", {}))


def state_diff(expected, actual):
    """Sorted final-state keys whose values differ between two
    digests (a key missing on one side counts as differing)."""
    actual = actual or {}
    return sorted(key for key in set(expected) | set(actual)
                  if expected.get(key) != actual.get(key))


def classify_outcome(outcome, baseline_state=None):
    """Classify one perturbed run: ``(kind, detail, signatures)``.

    ``kind`` is None for a clean run.  Non-ok statuses (``budget``,
    ``deadlock``, ``hang``, ``invalid``) pass through as kinds; an ok
    run fails with :data:`RACE` when the sanitizer found anything and
    with :data:`STATE_MISMATCH` when its final-state digest diverges
    from ``baseline_state`` (the oracle's digest).
    """
    signatures = race_signatures(outcome.analysis)
    if outcome.status != OK:
        return outcome.status, outcome.detail, signatures
    if signatures:
        return RACE, f"{len(signatures)} data race(s)", signatures
    if baseline_state is not None and outcome.final_state is not None:
        diverged = state_diff(baseline_state, outcome.final_state)
        if diverged:
            return (STATE_MISMATCH,
                    "final state diverged from the oracle: "
                    + ", ".join(diverged), signatures)
    return None, "", signatures


@dataclass
class RunRecord:
    """One run as the cell that replays it, judged by its oracle."""

    #: ``run_workload`` keyword dict that re-executes the run.
    cell: dict
    #: System whose fault-free, default-schedule final state judges it.
    oracle: str = "pthreads"
    #: ``{kind, detail, signatures}``; empty when the run was clean.
    failure: dict = field(default_factory=dict)
    #: Nonzero fired-injection counts by fault point.
    injections: dict = field(default_factory=dict)
    #: Generating campaign, policy and seed: names and reports only.
    origin: dict = field(default_factory=dict)

    def oracle_cell(self):
        """The cell that computes the oracle's final state."""
        cell = {key: value for key, value in self.cell.items()
                if key not in _PERTURBATIONS}
        cell.update(system=self.oracle, collect_state=True)
        return cell

    def to_dict(self):
        """The artifact payload, format tag included."""
        return dict(asdict(self), format=RECORD_FORMAT)

    @classmethod
    def from_dict(cls, data):
        """Rebuild a record from :meth:`to_dict` output; any other
        format tag raises :class:`~repro.errors.RecordFormatError`."""
        tag = data.get("format") if isinstance(data, dict) else None
        if tag != RECORD_FORMAT:
            raise RecordFormatError(
                f"unsupported run record format {tag!r} "
                f"(expected {RECORD_FORMAT})")
        try:
            return cls(**{k: v for k, v in data.items()
                          if k != "format"})
        except TypeError as exc:
            raise RecordFormatError(f"malformed run record: {exc}") \
                from exc

    def default_name(self):
        """``<workload>-<system>-f<seed>.json`` for a chaos plan,
        ``<workload>-<system>-<policy>-s<seed>.json`` otherwise."""
        stem = f"{self.cell['name']}-{self.cell['system']}"
        seed = self.origin.get("seed")
        if self.origin.get("campaign") == "chaos":
            return f"{stem}-f{seed}.json"
        return f"{stem}-{self.origin.get('policy')}-s{seed}.json"

    def save(self, path=None, out_dir=None):
        """Write the artifact; returns its path.

        Default location: ``results/<campaign>/`` (``fuzz`` unless the
        origin says ``chaos``; ``REPRO_RESULTS_DIR`` aware).
        """
        if path is None:
            directory = out_dir or os.path.join(
                results_dir(), self.origin.get("campaign", "fuzz"))
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(directory, self.default_name())
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path):
        """Read one saved record."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def replay(record):
    """Re-run a :class:`RunRecord` (or a path to its artifact).

    Returns ``(matches, detail, outcome)``.  The oracle cell runs
    first; the record's cell is then classified against its final
    state.  A match needs the recorded kind (None for a clean record)
    and signatures, and the recorded injection counts when any were
    recorded.
    """
    if isinstance(record, (str, os.PathLike)):
        record = RunRecord.load(record)
    oracle = run_workload(**record.oracle_cell())
    outcome = run_workload(**record.cell)
    kind, _detail, signatures = classify_outcome(outcome,
                                                 oracle.final_state)
    want_kind = record.failure.get("kind")
    want_signatures = [list(s)
                       for s in record.failure.get("signatures", [])]
    counts = injection_counts(outcome)
    matches = kind == want_kind and signatures == want_signatures
    detail = (f"replayed kind={kind!r} (expected {want_kind!r}), "
              f"{len(signatures)} signature(s) "
              f"(expected {len(want_signatures)})")
    if record.injections or counts:
        detail += (f", {sum(counts.values())} injection(s) (expected "
                   f"{sum(record.injections.values())})")
        if record.injections and counts != record.injections:
            matches = False
            detail += (f"; injection counts {counts} != recorded "
                       f"{record.injections}")
    return matches, detail, outcome


@dataclass
class SmokeResult:
    """Pass/fail checks from one CI smoke campaign (fuzz or chaos)."""

    #: ``(name, passed, detail)`` triples.
    checks: list
    #: Phase name -> the campaign report behind the checks.
    reports: dict
    #: Lines printed after the verdicts: chaos's per-cell lines, or a
    #: failing fuzz smoke's replay handles.
    explanation: list = field(default_factory=list)

    @property
    def ok(self):
        """True when every check passed."""
        return all(passed for _, passed, _ in self.checks)

    def summary_lines(self):
        """One ``[PASS]``/``[FAIL]`` line per check, then the
        explanation lines."""
        lines = [f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
                 for name, passed, detail in self.checks]
        return lines + list(self.explanation)
