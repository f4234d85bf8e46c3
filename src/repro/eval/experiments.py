"""One entry point per table/figure of the paper's evaluation.

Each function runs the required (workload x system) grid and returns an
:class:`ExperimentResult` holding both structured data and the rendered
paper-style table.  A paper artifact's default ``scale`` is the one
declaration of the scale its committed ``results/<name>.txt`` was made
at; :func:`repro.eval.claims.reproduce` regenerates them all.
"""

from dataclasses import dataclass

from repro.core.config import TmiConfig
from repro.core.consistency import TABLE2
from repro.eval.charts import bar_chart
from repro.eval.parallel import run_cells
from repro.eval.report import format_table, geomean, save_text
from repro.eval.runner import run_matrix
from repro.workloads import figure7_names, repair_suite_names

MB = 1024 * 1024


@dataclass
class ExperimentResult:
    """One regenerated table/figure: data and rendered text."""

    name: str
    data: dict
    text: str

    def save(self):
        """Write the rendered text under results/; returns the path."""
        return save_text(f"{self.name}.txt", self.text)


def _norm(outcome, baseline_cycles):
    """Normalized runtime (x over baseline; lower is better)."""
    if not outcome.ok:
        return None
    return outcome.result.cycles / baseline_cycles


def _cell(value, status=""):
    if value is None:
        return status or "--"
    return value


# ----------------------------------------------------------------------
# Figure 4: perf sample-period sweep on leveldb
# ----------------------------------------------------------------------
def figure4(scale=2.0, periods=(1, 5, 10, 50, 100, 1000)):
    """Runtime and recorded HITM events vs. perf period on leveldb."""
    rows = []
    data = {"periods": {}, "workload": "leveldb"}
    outcomes = run_cells(
        [dict(name="leveldb", system="tmi-detect", scale=scale,
              config=TmiConfig(period=period)) for period in periods])
    for period, outcome in zip(periods, outcomes):
        report = outcome.result.runtime_report
        entry = {
            "runtime_s": outcome.result.seconds,
            "records": report["perf_records"],
            "estimated_events": report["perf_estimated_events"],
            "events_seen": report["perf_events_seen"],
        }
        data["periods"][period] = entry
        rows.append((period, round(entry["runtime_s"] * 1e3, 2),
                     entry["records"], entry["estimated_events"],
                     entry["events_seen"]))
    text = format_table(
        ["period", "runtime (ms)", "records", "estimated", "actual"],
        rows,
        title="Figure 4: leveldb runtime and HITM events vs perf period")
    return ExperimentResult("figure4", data, text)


# ----------------------------------------------------------------------
# Figure 7: detection overhead across all 35 workloads
# ----------------------------------------------------------------------
def figure7(scale=0.3, workloads=None):
    """Normalized runtime of sheriff-detect / tmi-alloc / tmi-detect."""
    workloads = workloads or figure7_names()
    systems = ["pthreads", "sheriff-detect", "tmi-alloc", "tmi-detect"]
    grid = run_matrix(workloads, systems, scale=scale)
    rows = []
    data = {"workloads": {}, "scale": scale}
    per_system = {s: [] for s in systems[1:]}
    sheriff_works = 0
    for name in workloads:
        base = grid[name]["pthreads"]
        assert base.ok, f"baseline failed on {name}: {base.detail}"
        row = [name]
        entry = {}
        for system in systems[1:]:
            outcome = grid[name][system]
            norm = _norm(outcome, base.result.cycles)
            entry[system] = {"norm": norm, "status": outcome.status}
            row.append(_cell(norm, outcome.status))
            if norm is not None:
                per_system[system].append(norm)
        if grid[name]["sheriff-detect"].ok:
            sheriff_works += 1
        data["workloads"][name] = entry
        rows.append(row)
    summary = ["geomean"]
    for system in systems[1:]:
        summary.append(geomean(per_system[system]))
    rows.append(summary)
    data["geomean"] = {s: geomean(per_system[s]) for s in systems[1:]}
    data["sheriff_compatible"] = sheriff_works
    data["tmi_detect_overhead_pct"] = \
        (data["geomean"]["tmi-detect"] - 1) * 100
    text = format_table(
        ["workload", "sheriff-detect", "tmi-alloc", "tmi-detect"],
        rows,
        title=("Figure 7: runtime normalized to pthreads+Lockless "
               "(lower is better)"))
    chart_rows = [
        (name, entry["tmi-detect"]["norm"],
         entry["tmi-detect"]["status"]
         if entry["tmi-detect"]["norm"] is None else "")
        for name, entry in data["workloads"].items()]
    text += "\n\n" + bar_chart("tmi-detect normalized runtime",
                                chart_rows, baseline=1.0)
    return ExperimentResult("figure7", data, text)


# ----------------------------------------------------------------------
# Figure 8: memory overhead
# ----------------------------------------------------------------------
def figure8(scale=0.3, workloads=None):
    """Memory usage (MB): pthreads vs TMI-full."""
    workloads = workloads or figure7_names()
    rows = []
    data = {"workloads": {}}
    overheads = []
    outcomes = run_cells(
        [dict(name=name, system=system, scale=scale)
         for name in workloads for system in ("pthreads", "tmi-protect")])
    for index, name in enumerate(workloads):
        base, tmi = outcomes[2 * index:2 * index + 2]
        base_mb = base.result.total_memory / MB
        tmi_mb = tmi.result.total_memory / MB if tmi.ok else None
        data["workloads"][name] = {"pthreads_mb": base_mb,
                                   "tmi_mb": tmi_mb}
        if tmi_mb and base_mb > 64:
            overheads.append(tmi_mb / base_mb)
        rows.append((name, round(base_mb, 1),
                     _cell(round(tmi_mb, 1) if tmi_mb else None)))
    data["large_workload_overhead"] = geomean(overheads)
    text = format_table(
        ["workload", "pthreads (MB)", "TMI-full (MB)"], rows,
        title="Figure 8: memory usage (MB, absolute)")
    return ExperimentResult("figure8", data, text)


# ----------------------------------------------------------------------
# Figure 9 + Table 3: repair speedups and characterization
# ----------------------------------------------------------------------
def figure9(scale=1.0, workloads=None):
    """Speedup over pthreads for manual / sheriff-protect / LASER /
    TMI-protect on the false-sharing suite."""
    workloads = workloads or repair_suite_names()
    systems = ["pthreads", "manual", "sheriff-protect", "laser",
               "tmi-protect"]
    grid = run_matrix(workloads, systems, scale=scale)
    rows = []
    data = {"workloads": {}, "scale": scale}
    speedups = {s: [] for s in systems[1:]}
    for name in workloads:
        base = grid[name]["pthreads"]
        row = [name]
        entry = {}
        for system in systems[1:]:
            outcome = grid[name][system]
            speedup = (base.result.cycles / outcome.result.cycles
                       if outcome.ok else None)
            entry[system] = {"speedup": speedup,
                             "status": outcome.status}
            row.append(_cell(speedup, outcome.status))
            if speedup is not None:
                speedups[system].append(speedup)
        data["workloads"][name] = entry
        data["workloads"][name]["tmi_report"] = (
            grid[name]["tmi-protect"].result.runtime_report
            if grid[name]["tmi-protect"].ok else {})
        rows.append(row)
    rows.append(["geomean"] + [geomean(speedups[s]) for s in systems[1:]])
    data["geomean"] = {s: geomean(speedups[s]) for s in systems[1:]}
    manual = data["geomean"]["manual"]
    data["tmi_pct_of_manual"] = (
        100 * data["geomean"]["tmi-protect"] / manual if manual else 0)
    data["laser_pct_of_manual"] = (
        100 * data["geomean"]["laser"] / manual if manual else 0)
    text = format_table(
        ["workload", "manual", "sheriff-protect", "LASER",
         "TMI-protect"], rows,
        title="Figure 9: speedup over pthreads (higher is better)")
    chart_rows = []
    for name in workloads:
        for system in ("manual", "tmi-protect"):
            entry = data["workloads"][name][system]
            chart_rows.append((f"{name} [{system}]", entry["speedup"],
                               entry["status"] if entry["speedup"] is None
                               else ""))
    text += "\n\n" + bar_chart("speedup over pthreads", chart_rows,
                                baseline=1.0)
    return ExperimentResult("figure9", data, text)


def table3(scale=1.0, workloads=None, figure9_result=None):
    """Unrepaired time, T2P latency, and commit rate per repaired app."""
    workloads = workloads or repair_suite_names()
    if figure9_result is not None:
        reports = [figure9_result.data["workloads"][name]["tmi_report"]
                   for name in workloads]
    else:
        reports = [outcome.result.runtime_report if outcome.ok else {}
                   for outcome in run_cells(
                       [dict(name=name, system="tmi-protect", scale=scale)
                        for name in workloads])]
    rows = []
    data = {}
    for name, report in zip(workloads, reports):
        entry = {
            "unrepaired_s": report.get("unrepaired_intervals", 0),
            "t2p_us": report.get("t2p_us", 0.0),
            "commits_per_s": report.get("commits_per_interval", 0.0),
        }
        data[name] = entry
        rows.append((name, entry["unrepaired_s"], entry["t2p_us"],
                     entry["commits_per_s"]))
    text = format_table(
        ["app", "unrepaired (s*)", "T2P (us)", "commits/s*"], rows,
        title=("Table 3: repair characterization "
               "(* one detection interval = one scaled second)"))
    return ExperimentResult("table3", data, text)


# ----------------------------------------------------------------------
# Figure 10: 4KB vs 2MB huge pages
# ----------------------------------------------------------------------
def figure10(scale=1.0, workloads=None):
    """Overhead of 4KB pages relative to 2MB huge pages for TMI's
    process-shared file-backed region."""
    workloads = workloads or figure7_names()
    rows = []
    data = {"workloads": {}}
    ratios = []
    outcomes = run_cells(
        [dict(name=name, system="tmi-detect", scale=scale,
              config=TmiConfig(huge_pages=huge))
         for name in workloads for huge in (False, True)])
    for index, name in enumerate(workloads):
        small = outcomes[2 * index]
        huge = outcomes[2 * index + 1]
        pct = (small.result.cycles / huge.result.cycles - 1) * 100
        data["workloads"][name] = {"overhead_pct": pct}
        ratios.append(small.result.cycles / huge.result.cycles)
        rows.append((name, round(pct, 1)))
    data["huge_page_speedup_pct"] = (geomean(ratios) - 1) * 100
    rows.append(("geomean", round(data["huge_page_speedup_pct"], 1)))
    text = format_table(
        ["workload", "4KB overhead vs 2MB (%)"], rows,
        title="Figure 10: 4KB page overhead relative to 2MB huge pages")
    chart_rows = [(name, max(entry["overhead_pct"], 0.0), "")
                  for name, entry in data["workloads"].items()]
    text += "\n\n" + bar_chart("4KB overhead vs 2MB (%)", chart_rows,
                                unit="%")
    return ExperimentResult("figure10", data, text)


# ----------------------------------------------------------------------
# Table 1: the requirements matrix
# ----------------------------------------------------------------------
def table1(figure7_result=None, figure9_result=None, scale=None):
    """Compatibility / consistency / overhead / % of manual speedup,
    from Figure 7 and 9: a grid not given runs at ``scale`` if set."""
    grid_scale = {} if scale is None else {"scale": scale}
    fig7 = figure7_result or figure7(**grid_scale)
    fig9 = figure9_result or figure9(**grid_scale)
    manual = fig9.data["geomean"]["manual"]

    def pct_of_manual(system):
        value = fig9.data["geomean"].get(system)
        return round(100 * value / manual, 0) if value and manual else 0

    sheriff_compat = fig7.data["sheriff_compatible"]
    total = len(fig7.data["workloads"])
    data = {
        "sheriff": {
            "compatible": f"{sheriff_compat}/{total} workloads",
            "memory_consistency": False,
            "overhead_pct": round(
                (fig7.data["geomean"]["sheriff-detect"] - 1) * 100, 1),
            "pct_manual": pct_of_manual("sheriff-protect"),
        },
        "laser": {
            "compatible": "yes",
            "memory_consistency": True,
            "overhead_pct": 2.0,
            "pct_manual": pct_of_manual("laser"),
        },
        "tmi": {
            "compatible": "yes",
            "memory_consistency": True,
            "overhead_pct": round(
                (fig7.data["geomean"]["tmi-detect"] - 1) * 100, 1),
            "pct_manual": pct_of_manual("tmi-protect"),
        },
    }
    rows = [
        ("compatible", data["sheriff"]["compatible"], "yes", "yes"),
        ("memory consistency", "no", "yes", "yes"),
        ("overhead w/o contention",
         f"{data['sheriff']['overhead_pct']}%",
         f"{data['laser']['overhead_pct']}%",
         f"{data['tmi']['overhead_pct']}%"),
        ("% of manual speedup",
         f"{data['sheriff']['pct_manual']:.0f}%",
         f"{data['laser']['pct_manual']:.0f}%",
         f"{data['tmi']['pct_manual']:.0f}%"),
    ]
    text = format_table(["requirement", "Sheriff", "LASER", "TMI"], rows,
                        title="Table 1: requirements for effective "
                              "false sharing repair")
    return ExperimentResult("table1", data, text)


# ----------------------------------------------------------------------
# Table 2: consistency semantics (static, from the model)
# ----------------------------------------------------------------------
def table2():
    """Render the code-centric consistency interaction matrix."""
    kinds = ("regular", "atomic", "asm")
    rows = []
    for a in kinds:
        row = [a]
        for b in kinds:
            semantics, permitted = TABLE2[frozenset([a, b])]
            row.append(f"{semantics}{' [PTSB]' if permitted else ''}")
        rows.append(row)
    text = format_table(["", "regular", "atomic", "x86 asm"], rows,
                        title=("Table 2: semantics of concurrent "
                               "conflicting accesses ([PTSB] = PTSB "
                               "use permitted)"))
    return ExperimentResult("table2", {"table": dict(
        (",".join(sorted(k)), v) for k, v in
        ((tuple(key), value) for key, value in TABLE2.items()))}, text)


# ----------------------------------------------------------------------
# Ablations (section 4.3 and 4.4 call-outs)
# ----------------------------------------------------------------------
def ablation_ptsb_everywhere(scale=1.0,
                             workloads=("histogram", "histogramfs")):
    """Targeted repair vs. protecting all of memory (section 4.3)."""
    variants = (("pthreads", None), ("tmi-protect", None),
                ("tmi-protect", TmiConfig(targeted=False)))
    outcomes = run_cells(
        [dict(name=name, system=system, scale=scale, config=config)
         for name in workloads for system, config in variants])
    rows = []
    data = {}
    for index, name in enumerate(workloads):
        base, targeted, everywhere = outcomes[3 * index:3 * index + 3]
        s_t = base.result.cycles / targeted.result.cycles
        s_e = base.result.cycles / everywhere.result.cycles
        data[name] = {"targeted": s_t, "everywhere": s_e}
        rows.append((name, s_t, s_e))
    text = format_table(
        ["workload", "targeted speedup", "PTSB-everywhere speedup"],
        rows, title="Ablation: targeted repair vs PTSB-everywhere")
    return ExperimentResult("ablation_ptsb", data, text)


def ablation_allocator(scale=0.3,
                       workloads=("kmeans", "reverse", "dedup",
                                  "wordcount", "histogram")):
    """Lockless vs glibc-style allocator (section 4.1: ~16%)."""
    outcomes = run_cells(
        [dict(name=name, system=system, scale=scale)
         for name in workloads for system in ("pthreads", "glibc")])
    rows = []
    ratios = []
    data = {}
    for index, name in enumerate(workloads):
        lockless, glibc = outcomes[2 * index:2 * index + 2]
        ratio = glibc.result.cycles / lockless.result.cycles
        data[name] = ratio
        ratios.append(ratio)
        rows.append((name, ratio))
    data["geomean"] = geomean(ratios)
    rows.append(("geomean", data["geomean"]))
    text = format_table(
        ["workload", "glibc / lockless runtime"], rows,
        title="Ablation: allocator choice (paper: Lockless ~16% faster)")
    return ExperimentResult("ablation_alloc", data, text)


def ablation_huge_commit(scale=0.6, workload="histogramfs"):
    """Huge-page commit memcmp prefilter on vs off (section 4.4).

    Forces paper-literal 2 MB page protection (no 4 KB split) so the
    commit path actually diffs whole huge pages.
    """
    on, off = run_cells(
        [dict(name=workload, system="tmi-protect", scale=scale,
              config=TmiConfig(huge_pages=True, repair_page_split=False,
                               huge_commit_optimization=optimized))
         for optimized in (True, False)])
    data = {"optimized_cycles": on.result.cycles,
            "unoptimized_cycles": off.result.cycles,
            "benefit_pct": (off.result.cycles / on.result.cycles - 1)
            * 100}
    text = format_table(
        ["configuration", "cycles"],
        [("memcmp prefilter ON", on.result.cycles),
         ("memcmp prefilter OFF", off.result.cycles)],
        title=f"Ablation: huge-page commit optimization ({workload})")
    return ExperimentResult("ablation_huge_commit", data, text)


def ablation_code_centric(scale=1.0, workload="shptr-relaxed"):
    """Code-centric consistency on vs off for relaxed atomics."""
    base, with_cc, no_relaxed = run_cells(
        [dict(name=workload, system=system, scale=scale, config=config)
         for system, config in (("pthreads", None), ("tmi-protect", None),
                                ("tmi-protect",
                                 TmiConfig(flush_relaxed=True)))])
    data = {
        "with_cc_speedup": base.result.cycles / with_cc.result.cycles,
        "relaxed_fast_path": with_cc.result.runtime_report.get(
            "relaxed_fast_path", 0),
    }
    rows = [("code-centric (relaxed fast path)",
             data["with_cc_speedup"])]
    if no_relaxed.ok:
        data["without_speedup"] = (base.result.cycles
                                   / no_relaxed.result.cycles)
        rows.append(("conservative (flush on relaxed)",
                     data["without_speedup"]))
    text = format_table(["configuration", "speedup over pthreads"], rows,
                        title="Ablation: code-centric consistency on "
                              f"{workload}")
    return ExperimentResult("ablation_code_centric", data, text)


# ----------------------------------------------------------------------
# Lint accuracy: static predictions vs simulated HITM ground truth
# ----------------------------------------------------------------------
def lint_accuracy(scale=0.1, workloads=None):
    """Score the static linter's false-sharing predictions per workload.

    Ground truth is a pthreads simulation with the HITM listener
    recording every inter-core sharing event (no sampling), classified
    with the same byte-overlap rule the linter uses.  Lint and ground
    truth run at the same scale so their traces cover the same
    iteration space.
    """
    from repro.analysis.ground_truth import (collect_ground_truth,
                                             precision_recall)
    from repro.analysis.lint import lint_workload
    from repro.eval.report import precision_recall_table
    from repro.workloads import get as get_workload

    names = list(workloads) if workloads else repair_suite_names()
    rows = []
    data = {"workloads": {}, "scale": scale}
    total_tp = total_fp = total_fn = 0
    for name in names:
        lint = lint_workload(name, scale=scale)
        truth = collect_ground_truth(get_workload(name, scale=scale))
        precision, recall, tp, fp, fn = precision_recall(
            lint.predicted_false, truth.false_lines)
        total_tp += tp
        total_fp += fp
        total_fn += fn
        data["workloads"][name] = {
            "predicted": len(lint.predicted_false),
            "ground_truth": len(truth.false_lines),
            "tp": tp, "fp": fp, "fn": fn,
            "precision": precision, "recall": recall,
            "hitm_samples": truth.hitm_count,
        }
        rows.append((name, len(lint.predicted_false),
                     len(truth.false_lines), tp, fp, fn, precision,
                     recall))
    overall_p = (total_tp / (total_tp + total_fp)
                 if total_tp + total_fp else 1.0)
    overall_r = (total_tp / (total_tp + total_fn)
                 if total_tp + total_fn else 1.0)
    data["precision"] = overall_p
    data["recall"] = overall_r
    rows.append(("OVERALL", "", "", total_tp, total_fp, total_fn,
                 overall_p, overall_r))
    text = precision_recall_table(
        rows,
        title="Lint accuracy: static false-sharing prediction vs "
              "simulated HITM ground truth")
    return ExperimentResult("lint_accuracy", data, text)


# ----------------------------------------------------------------------
# Repair-compare: static repair planner vs TMI's dynamic isolation
# ----------------------------------------------------------------------
def placement_repair(scale=0.3, workloads=None, sockets=2,
                     placements=("compact", "scatter", "sharing-aware"),
                     pages=("first-touch", "interleave")):
    """Placement x page-policy x repair grid on a multi-socket machine.

    The NUMA extension of the Fig 10 axis (see ``docs/HARDWARE.md``):
    every cell runs on a ``sockets``-socket topology and the grid
    crosses thread placement (compact / scatter / sharing-aware), page
    placement (first-touch / interleave), and repair (pthreads vs the
    static repair planner).  The questions it answers:

    - does sharing-aware placement cut *inter-socket* HITM traffic vs
      compact (the mapping-as-repair-alternative claim), and
    - does repair still dominate, since placement can only move false
      sharing on-socket, not remove it.

    The state-identity gate (``data["state_identical_all"]``) checks
    that every placement/page combination leaves each workload's final
    state bit-identical — mapping policies must never change program
    semantics, only costs.
    """
    names = (list(workloads) if workloads
             else ["clique-counters", "histogram", "histogramfs"])
    systems = ["pthreads", "static-repaired"]
    combos = [(name, system, placement, page)
              for name in names for system in systems
              for placement in placements for page in pages]
    outcomes = run_cells(
        [dict(name=name, system=system, scale=scale, sockets=sockets,
              placement=placement, pages=page, collect_metrics=True,
              collect_state=True)
         for name, system, placement, page in combos])

    def cross_hitm(outcome):
        if outcome.metrics is None:
            return None
        return outcome.metrics["counters"].get(
            "machine.hitm.cross_socket", 0)

    grid = {}
    data = {"scale": scale, "sockets": sockets, "workloads": {}}
    for (name, system, placement, page), outcome in zip(combos,
                                                        outcomes):
        assert outcome.ok, (f"{name}/{system} under {placement}/{page} "
                            f"failed: {outcome.status} {outcome.detail}")
        grid[(name, system, placement, page)] = outcome
        entry = data["workloads"].setdefault(name, {})
        entry[f"{system}/{placement}/{page}"] = {
            "cycles": outcome.result.cycles,
            "hitm": outcome.result.hitm_total,
            "cross_socket_hitm": cross_hitm(outcome),
        }
    # every placement/page cell ends in its first cell's final state
    data["state_identical_all"] = all(
        grid[(name, system, placement, page)].final_state
        == grid[(name, system, placements[0], pages[0])].final_state
        for name in names for system in systems
        for placement in placements for page in pages)

    # the mapping-vs-repair headline: aggregate cross-socket HITM of
    # the unrepaired runs under first-touch pages
    compact_cross = sum(
        cross_hitm(grid[(name, "pthreads", "compact", pages[0])]) or 0
        for name in names)
    aware_cross = sum(
        cross_hitm(grid[(name, "pthreads", "sharing-aware",
                         pages[0])]) or 0
        for name in names)
    data["cross_hitm"] = {"compact": compact_cross,
                          "sharing-aware": aware_cross}
    data["sharing_aware_cross_reduction"] = (
        1.0 - aware_cross / compact_cross if compact_cross else 0.0)

    rows = []
    for name in names:
        base = grid[(name, "pthreads", placements[0],
                     pages[0])].result.cycles
        for placement in placements:
            for page in pages:
                plain = grid[(name, "pthreads", placement, page)]
                repaired = grid[(name, "static-repaired", placement,
                                 page)]
                rows.append((
                    name, placement, page,
                    round(plain.result.cycles / base, 3),
                    plain.result.hitm_total, cross_hitm(plain),
                    round(repaired.result.cycles / base, 3),
                    cross_hitm(repaired)))
    text = format_table(
        ["workload", "placement", "pages", "pthreads", "hitm",
         "x-socket", "repaired", "x-socket"],
        rows,
        title=(f"Placement vs repair on {sockets} sockets: runtime "
               f"normalized to compact/{pages[0]} pthreads, total and "
               f"cross-socket HITM"))
    return ExperimentResult("placement_repair", data, text)


def repair_compare(scale=0.1, workloads=None):
    """pthreads vs tmi-protect vs static-repaired vs static+tmi.

    The static axis the paper positions TMI against: the repair planner
    (see :mod:`repro.analysis.repair`) rewrites each workload's layout
    from lint findings alone, and the grid compares its runtime and
    HITM counts with TMI's dynamic isolation.  A second table validates
    the planner's predictions against simulated HITM ground truth:
    fraction of falsely-shared-line HITM events eliminated, the
    precision/recall of its predicted-fixed claims, and the
    semantic-preservation gate (rewritten final state bit-identical to
    the original under pthreads).  The ``repair`` command writes the
    plans themselves (``results/repair/``).
    """
    from repro.analysis.ground_truth import score_repair
    from repro.workloads import get as get_workload

    names = list(workloads) if workloads else repair_suite_names()
    systems = ["pthreads", "tmi-protect", "static-repaired",
               "static-tmi"]
    grid = run_matrix(names, systems, scale=scale)

    runtime_rows = []
    validate_rows = []
    data = {"workloads": {}, "scale": scale, "systems": systems}
    per_system = {s: [] for s in systems[1:]}
    agg_base = agg_resid = 0
    total_tp = total_fp = total_fn = 0
    states_ok = True
    for name in names:
        base = grid[name]["pthreads"]
        assert base.ok, f"baseline failed on {name}: {base.detail}"
        entry = {}
        row = [name, base.result.hitm_total]
        for system in systems[1:]:
            outcome = grid[name][system]
            norm = _norm(outcome, base.result.cycles)
            hitm = (outcome.result.hitm_total if outcome.result
                    else None)
            entry[system] = {"norm": norm, "hitm": hitm,
                             "status": outcome.status}
            row.append(_cell(norm, outcome.status))
            row.append(_cell(hitm, outcome.status))
            if norm is not None:
                per_system[system].append(norm)
        runtime_rows.append(row)

        score = score_repair(get_workload(name, scale=scale))
        entry["score"] = score
        agg_base += score["baseline_false_events"]
        agg_resid += score["repaired_false_events"]
        total_tp += score["tp"]
        total_fp += score["fp"]
        total_fn += score["fn"]
        states_ok = states_ok and score["state_identical"]
        validate_rows.append((
            name, score["baseline_false_lines"],
            score["predicted_fixed"], score["predicted_residual"],
            score["baseline_false_events"],
            score["repaired_false_events"],
            round(score["eliminated_fraction"] * 100, 1),
            score["precision"], score["recall"],
            "yes" if score["state_identical"] else "NO"))
        data["workloads"][name] = entry

    summary = ["geomean", ""]
    for system in systems[1:]:
        summary.append(geomean(per_system[system]))
        summary.append("")
    runtime_rows.append(summary)
    overall_elim = 1.0 - agg_resid / agg_base if agg_base else 1.0
    overall_p = (total_tp / (total_tp + total_fp)
                 if total_tp + total_fp else 1.0)
    overall_r = (total_tp / (total_tp + total_fn)
                 if total_tp + total_fn else 1.0)
    validate_rows.append((
        "OVERALL", "", "", "", agg_base, agg_resid,
        round(overall_elim * 100, 1), round(overall_p, 4),
        round(overall_r, 4), "yes" if states_ok else "NO"))
    data["geomean"] = {s: geomean(per_system[s]) for s in systems[1:]}
    data["eliminated_fraction"] = overall_elim
    data["precision"] = overall_p
    data["recall"] = overall_r
    data["state_identical_all"] = states_ok

    text = format_table(
        ["workload", "pthreads hitm",
         "tmi-protect", "hitm", "static-repaired", "hitm",
         "static-tmi", "hitm"],
        runtime_rows,
        title=("Repair-compare: runtime normalized to pthreads "
               "(lower is better) and total HITM events"))
    text += "\n\n" + format_table(
        ["workload", "false lines", "pred fixed", "pred resid",
         "base ev", "resid ev", "elim %", "precision", "recall",
         "state ok"],
        validate_rows,
        title=("Planner validation vs simulated HITM ground truth "
               "(falsely-shared-line events, pthreads geometry)"))
    return ExperimentResult("repair_compare", data, text)
