"""Simulated-HITM ground truth for scoring the static linter.

Runs a workload under the pthreads baseline with an observer whose
``on_hitm`` records per-line, per-thread byte masks — exactly the
information the paper's detector samples, but exhaustively rather than
statistically — and classifies the touched lines with the same
byte-overlap rule the linter uses (:mod:`repro.analysis.layout_check`).
Observer callbacks charge zero cycles, so the run's results are the
baseline's.

Like the extractor, masks count only while at least two threads are
alive; a HITM can fire after the last worker exits (main reading
worker-dirtied lines during reduction), and those are not concurrency.
"""

from dataclasses import dataclass, field

from repro.analysis.layout_check import (classify_lines,
                                         false_sharing_lines,
                                         true_sharing_lines)
from repro.analysis.observer import EngineObserver
from repro.sim.costs import LINE_SIZE

_LINE_MASK = ~(LINE_SIZE - 1)


class HitmGroundTruth(EngineObserver):
    """Observer collecting sharing ground truth from every HITM."""

    def __init__(self):
        self.lines = {}        # line_va -> {tid: [read_mask, write_mask]}
        self.line_counts = {}  # line_va -> parallel-phase HITM events
        self.hitm_count = 0
        self._alive = 0

    def on_thread_create(self, parent_tid, child_tid):
        self._alive += 1

    def on_thread_exit(self, tid):
        self._alive -= 1

    def on_hitm(self, event):
        self.hitm_count += 1
        if self._alive < 2:
            return
        addr = event.va
        end = addr + event.width
        lines = self.lines
        counts = self.line_counts
        while addr < end:
            line = addr & _LINE_MASK
            take = min(end, line + LINE_SIZE) - addr
            mask = ((1 << take) - 1) << (addr - line)
            record = lines.setdefault(line, {}).setdefault(
                event.tid, [0, 0])
            record[1 if event.is_store else 0] |= mask
            counts[line] = counts.get(line, 0) + 1
            addr += take

    def shared_lines(self):
        return classify_lines(self.lines)


@dataclass
class GroundTruth:
    """Classified HITM ground truth from one baseline run."""

    workload: str
    shared_lines: list = field(default_factory=list)
    hitm_count: int = 0
    result: object = None
    #: line_va -> parallel-phase HITM event count.
    line_counts: dict = field(default_factory=dict)
    #: The (finished) engine, for post-run ``read_memory`` oracles.
    engine: object = None

    @property
    def false_lines(self):
        return false_sharing_lines(self.shared_lines)

    @property
    def true_lines(self):
        return true_sharing_lines(self.shared_lines)


def collect_ground_truth(workload, variant=None, program=None):
    """Simulate under pthreads and classify HITM lines.

    ``program`` substitutes a pre-built Program (e.g. one rewritten by
    the repair planner) for the workload's own build; ``workload`` may
    then be None.
    """
    from repro.baselines.pthreads import PthreadsRuntime
    from repro.engine.scheduler import Engine

    if program is None:
        program = (workload.build() if variant is None
                   else workload.build(variant))
    collector = HitmGroundTruth()
    engine = Engine(program, PthreadsRuntime())
    engine.attach_observer(collector)
    result = engine.run()
    return GroundTruth(
        workload=program.name,
        shared_lines=collector.shared_lines(),
        hitm_count=collector.hitm_count,
        result=result,
        line_counts=dict(collector.line_counts),
        engine=engine,
    )


def precision_recall(predicted_lines, truth_lines):
    """Precision/recall of predicted line addresses vs ground truth.

    Both arguments are SharedLine lists (typically the false-sharing
    subset on each side).  Returns (precision, recall, tp, fp, fn);
    precision/recall are 1.0 when their denominator is empty.
    """
    predicted = {line.line_va for line in predicted_lines}
    truth = {line.line_va for line in truth_lines}
    tp = len(predicted & truth)
    fp = len(predicted - truth)
    fn = len(truth - predicted)
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / (tp + fn) if (tp + fn) else 1.0
    return precision, recall, tp, fp, fn


def score_repair(workload, variant="default"):
    """Score the static repair planner against simulated HITM truth.

    Runs the workload twice under pthreads -- original layout and
    planner-rewritten layout -- with the HITM listener attached, and
    reports:

    - ``eliminated_fraction``: 1 minus the ratio of falsely-shared-line
      HITM events after repair to before (each run classified in its
      own geometry, so false sharing the repair *introduces* -- e.g. in
      the arena -- counts against the planner);
    - precision/recall of the plan's predicted-fixed claims over the
      lines that actually exhibited false-sharing HITM, translating the
      repaired run's residual lines back into extraction geometry
      through the rewriter's observed allocation bases;
    - ``state_identical``: the semantic-preservation gate (final-state
      digests of both runs must match bit-for-bit).
    """
    from repro.analysis.extract import TraceExtractor
    from repro.analysis.repair import plan_program, rewrite_program

    extraction_program = workload.build(variant)
    extracted = TraceExtractor(extraction_program).run()
    plan = plan_program(extraction_program, extracted=extracted,
                        variant=variant)

    baseline = collect_ground_truth(workload, variant)
    rewritten, rewriter = rewrite_program(workload.build(variant), plan)
    repaired = collect_ground_truth(None, program=rewritten)

    base_false = {line.line_va for line in baseline.false_lines}
    base_events = sum(baseline.line_counts.get(line, 0)
                      for line in base_false)
    repaired_false = {line.line_va for line in repaired.false_lines}
    repaired_events = sum(repaired.line_counts.get(line, 0)
                          for line in repaired_false)
    eliminated = (1.0 - repaired_events / base_events if base_events
                  else 1.0)

    # translate repaired-geometry residual lines back to extraction
    # geometry via allocation ordinals
    ext_base = {a.ordinal: a.base for a in extracted.allocations}
    observed = sorted(
        (addr, addr + next(a.size for a in extracted.allocations
                           if a.ordinal == ordinal), ordinal)
        for ordinal, addr in rewriter.observed.items()
        if ordinal in ext_base)
    residual_ext = set()
    new_false = 0
    for line_va in repaired_false:
        translated = None
        for base, end, ordinal in observed:
            if base <= line_va < end:
                translated = ext_base[ordinal] + (line_va - base)
                break
        if translated is None:
            new_false += 1
        else:
            residual_ext.add(translated & ~(LINE_SIZE - 1))

    flagged = {line for line in base_false
               if baseline.line_counts.get(line, 0)}
    actually_fixed = flagged - residual_ext
    predicted_fixed = set(plan.predicted_fixed) & flagged
    tp = len(predicted_fixed & actually_fixed)
    fp = len(predicted_fixed - actually_fixed)
    fn = len(actually_fixed - predicted_fixed)
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / (tp + fn) if (tp + fn) else 1.0

    base_state = workload.final_state(
        baseline.result.env, baseline.engine)
    repaired_state = workload.final_state(
        repaired.result.env, rewriter.view(repaired.engine))
    state_identical = base_state == repaired_state

    return {
        "workload": baseline.workload,
        "baseline_false_lines": len(base_false),
        "baseline_false_events": base_events,
        "repaired_false_lines": len(repaired_false),
        "repaired_false_events": repaired_events,
        "new_false_lines": new_false,
        "eliminated_fraction": round(eliminated, 4),
        "predicted_fixed": len(plan.predicted_fixed),
        "predicted_residual": len(plan.predicted_residual),
        "precision": round(precision, 4),
        "recall": round(recall, 4),
        "tp": tp, "fp": fp, "fn": fn,
        "state_identical": state_identical,
        "plan_cost": dict(plan.cost),
    }
