"""The paper's claims, and the one way to regenerate the paper.

Each claim asserts on one regenerated
:class:`~repro.eval.experiments.ExperimentResult`: who wins, by roughly
what factor, where Sheriff cannot run.  :func:`reproduce` remakes every
committed ``results/*.txt`` at its experiment's default scale, checks
the claims and rewrites the files; the simulator is deterministic, so
a changed byte is a real change.
"""

import time
import traceback
from pathlib import Path

from repro.eval import experiments
from repro.eval.report import results_dir


def figure4(result):
    """Fig 4: short periods cost runtime and record more events."""
    periods = result.data["periods"]
    # runtime is monotone-ish: period 1 costs more than period 1000
    assert periods[1]["runtime_s"] > periods[1000]["runtime_s"]
    # records fall as the period grows
    assert periods[1]["records"] > periods[100]["records"] \
        >= periods[1000]["records"]
    assert periods[1]["records"] > 20 * max(periods[1000]["records"], 1)
    # period-scaled estimates stay within an order of magnitude of the
    # actual event count for moderate periods
    for period in (5, 10, 50, 100):
        entry = periods[period]
        if entry["records"] == 0:
            continue
        ratio = entry["estimated_events"] / max(entry["events_seen"], 1)
        assert 0.1 < ratio < 10, (period, entry)


def figure7(result):
    """Fig 7: detection is cheap; Sheriff runs only a minority."""
    data = result.data
    # tmi-detect: low average overhead on the full suite
    assert data["tmi_detect_overhead_pct"] < 8, data["geomean"]
    # tmi-alloc is near-neutral
    assert 0.9 < data["geomean"]["tmi-alloc"] < 1.1
    # Sheriff runs only a minority of the suite (paper: 11 of 35)
    assert data["sheriff_compatible"] <= 15
    # where Sheriff does run, it costs more than tmi-detect on the
    # sync-heavy workloads
    sheriff_norms = [w["sheriff-detect"]["norm"]
                     for w in data["workloads"].values()
                     if w["sheriff-detect"]["norm"] is not None]
    assert max(sheriff_norms) > 1.5


def figure8(result):
    """Fig 8: a fixed ~90 MB on small inputs, ~19% on large ones."""
    data = result.data["workloads"]
    # small benchmarks: fixed overhead in the tens-of-MB band
    for name in ("histogram", "lreg", "swaptions"):
        delta = data[name]["tmi_mb"] - data[name]["pthreads_mb"]
        assert 30 < delta < 300, (name, delta)
    # large benchmarks: proportional overhead stays moderate
    assert result.data["large_workload_overhead"] < 1.6
    # the biggest footprints dwarf the fixed overhead (log-scale shape)
    assert data["ocean-ncp"]["pthreads_mb"] > 1000 * \
        data["swaptions"]["pthreads_mb"]
    # lock-heavy workloads pay for pshared sync shadows
    base = data["swaptions"]["tmi_mb"] - data["swaptions"]["pthreads_mb"]
    heavy = (data["fluidanimate"]["tmi_mb"]
             - data["fluidanimate"]["pthreads_mb"])
    assert heavy > base


def figure9(result):
    """Fig 9: TMI lands near the manual fix, far above LASER."""
    data = result.data["workloads"]
    geomean = result.data["geomean"]
    # TMI repairs: meaningful speedups on the clear-cut bugs
    for name in ("histogramfs", "lreg", "stringmatch", "leveldb-fs",
                 "spinlockpool", "shptr-relaxed"):
        tmi = data[name]["tmi-protect"]["speedup"]
        assert tmi and tmi > 1.5, f"TMI failed to repair {name}: {tmi}"
    # TMI approaches manual fixes on average (paper: 88%)
    assert result.data["tmi_pct_of_manual"] > 60
    # Sheriff incompatibilities from the paper
    for name in ("lu-ncb", "leveldb-fs"):
        assert data[name]["sheriff-protect"]["status"] != "ok"
    assert data["shptr-relaxed"]["sheriff-protect"]["status"] in (
        "invalid", "hang", "incompatible")
    # LASER's repair captures much less than TMI's
    assert geomean["laser"] < geomean["tmi-protect"]
    assert result.data["laser_pct_of_manual"] < \
        result.data["tmi_pct_of_manual"]
    # the code-centric consistency gap (shptr pair)
    relaxed = data["shptr-relaxed"]["tmi-protect"]["speedup"]
    locked = data["shptr-lock"]["tmi-protect"]["speedup"]
    assert relaxed > 2 * locked
    # shptr-lock: commits negate most of the benefit (paper: 1.04x)
    assert locked < 1.8


def figure10(result):
    """Fig 10: huge pages win, most on the fault-heavy inputs."""
    data = result.data["workloads"]
    # net win for huge pages across the suite
    assert result.data["huge_page_speedup_pct"] > 0
    # the paper's named fault-heavy workloads benefit clearly
    for name in ("canneal", "reverse", "fft", "fmm", "ocean-ncp",
                 "radix"):
        assert data[name]["overhead_pct"] > 2, (
            name, data[name]["overhead_pct"])
    # small-footprint workloads barely move
    for name in ("swaptions", "histogram"):
        assert abs(data[name]["overhead_pct"]) < 10


def table1(result):
    """Table 1: TMI is compatible, consistent, cheap, near manual."""
    data = result.data
    # Sheriff: incompatible with most of the suite; TMI/LASER: compatible
    compatible = int(data["sheriff"]["compatible"].split("/")[0])
    assert compatible <= 15
    assert data["tmi"]["compatible"] == "yes"
    # TMI's overhead without contention is low
    assert data["tmi"]["overhead_pct"] < 8
    # TMI captures far more of the manual speedup than LASER
    assert data["tmi"]["pct_manual"] > data["laser"]["pct_manual"]
    assert data["tmi"]["pct_manual"] > 60
    # consistency column (static truth of the designs)
    assert data["sheriff"]["memory_consistency"] is False
    assert data["tmi"]["memory_consistency"] is True


def table3(result):
    """Table 3: quick detection and T2P; shptr-lock commits most."""
    data = result.data
    repaired = [name for name, entry in data.items()
                if entry["t2p_us"] > 0]
    assert len(repaired) >= 6, repaired
    for name in repaired:
        entry = data[name]
        # T2P under 200us (paper: all conversions < 200us)
        assert 0 < entry["t2p_us"] < 200, (name, entry)
        # detection within a handful of intervals
        assert entry["unrepaired_s"] <= 8, (name, entry)
    # shptr-lock commits far more often than the rest (paper: 34/s
    # vs a few per second)
    lock_rate = data["shptr-lock"]["commits_per_s"]
    others = [data[n]["commits_per_s"] for n in repaired
              if n != "shptr-lock"]
    assert lock_rate > 3 * max(others), (lock_rate, others)


def ablation_ptsb(result):
    """Section 4.3: a PTSB everywhere loses to targeted repair."""
    for name, entry in result.data.items():
        # targeted repair beats protecting all of memory
        assert entry["targeted"] > entry["everywhere"], (name, entry)


def ablation_alloc(result):
    """Section 4.1: Lockless beats glibc-style allocation."""
    # glibc-style allocation is slower on the allocation-heavy subset
    assert result.data["geomean"] > 1.01


def ablation_huge_commit(result):
    """Section 4.4: the commit memcmp prefilter costs no cycles."""
    assert result.data["benefit_pct"] >= 0


def ablation_code_centric(result):
    """Relaxed atomics that skip the PTSB flush keep the speedup."""
    data = result.data
    assert data["relaxed_fast_path"] > 0
    assert data["with_cc_speedup"] > 1.5
    if "without_speedup" in data:
        # flushing on relaxed atomics forfeits most of the benefit
        assert data["with_cc_speedup"] > data["without_speedup"]


def placement_repair(result):
    """Placement keeps state; sharing-aware cuts cross-socket HITM."""
    assert result.data["state_identical_all"], "state gate failed"
    assert result.data["sharing_aware_cross_reduction"] >= 0.9, \
        result.data


def repair_compare(result):
    """Static repair keeps state and predicts its residue exactly."""
    assert result.data["state_identical_all"], "semantic gate failed"
    assert result.data["precision"] == 1.0 and \
        result.data["recall"] == 1.0


#: The claims by result name (``tests/core/test_consistency_table2.py``
#: checks the model Table 2 renders).
CLAIMS = {claim.__name__: claim for claim in (
    figure4, figure7, figure8, figure9, figure10, table1, table3,
    ablation_ptsb, ablation_alloc, ablation_huge_commit,
    ablation_code_centric, placement_repair, repair_compare)}


def check(result):
    """The failing assert of ``result``'s claim and its message, or
    None when the claim holds."""
    claim = CLAIMS.get(result.name)
    try:
        if claim is not None:
            claim(result)
    except AssertionError as exc:
        line = traceback.extract_tb(exc.__traceback__)[-1].line
        return f"{result.name}: {line} {exc}".rstrip()
    return None


#: Every committed ``results/<name>.txt``, in the order it is made.
#: Each builder takes the results made before it, so Table 1 and Table
#: 3 render from the one Figure 7 and Figure 9 run.
ARTIFACTS = {
    "figure4": lambda made: experiments.figure4(),
    "figure7": lambda made: experiments.figure7(),
    "figure8": lambda made: experiments.figure8(),
    "figure9": lambda made: experiments.figure9(),
    "figure10": lambda made: experiments.figure10(),
    "table1": lambda made: experiments.table1(
        figure7_result=made["figure7"], figure9_result=made["figure9"]),
    "table2": lambda made: experiments.table2(),
    "table3": lambda made: experiments.table3(
        figure9_result=made["figure9"]),
    "ablation_ptsb": lambda made: experiments.ablation_ptsb_everywhere(),
    "ablation_alloc": lambda made: experiments.ablation_allocator(),
    "ablation_huge_commit":
        lambda made: experiments.ablation_huge_commit(),
    "ablation_code_centric":
        lambda made: experiments.ablation_code_centric(),
    "placement_repair": lambda made: experiments.placement_repair(),
    "repair_compare": lambda made: experiments.repair_compare(),
}


def reproduce():
    """Regenerate every result in :data:`ARTIFACTS`, check its claim
    and rewrite its file under ``results/``, printing one line per
    result; returns the problems (a failed claim, or a file whose bytes
    changed or that was missing)."""
    if not __debug__:
        raise RuntimeError("the claims are assert statements; "
                           "run reproduce without python -O")
    made, problems = {}, []
    for name, build in ARTIFACTS.items():
        start = time.perf_counter()
        result = made[name] = build(made)
        failure = check(result)
        path = Path(results_dir(), f"{result.name}.txt")
        before = path.read_bytes() if path.exists() else None
        result.save()
        status = ("written (was missing)" if before is None else
                  "unchanged" if path.read_bytes() == before else "CHANGED")
        if status != "unchanged":
            problems.append(f"{path}: {status}")
        if failure is not None:
            problems.append(f"claim failed: {failure}")
        print(f"{name:22} {status:9}  claims "
              f"{'FAILED' if failure else 'ok'}  "
              f"{time.perf_counter() - start:6.1f} s", flush=True)
    return problems
