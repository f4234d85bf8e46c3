"""Ablation benches for the design choices DESIGN.md calls out.

1. Targeted repair vs PTSB-everywhere (paper section 4.3: histogram
   flips from speedup to slowdown when the PTSB is indiscriminate).
2. Allocator choice (section 4.1: Lockless ~16% faster than glibc).
3. Huge-page commit memcmp prefilter (section 4.4).
4. Code-centric consistency: relaxed atomics without PTSB flushes
   (the shptr-relaxed optimization).
"""

from repro.eval import (ablation_allocator, ablation_code_centric,
                        ablation_huge_commit, ablation_ptsb_everywhere)

from conftest import bench_scale, publish


def test_ablation_targeted_vs_everywhere():
    result = ablation_ptsb_everywhere(scale=bench_scale(1.0))
    publish(result)
    for name, entry in result.data.items():
        # targeted repair beats protecting all of memory
        assert entry["targeted"] > entry["everywhere"], (name, entry)


def test_ablation_allocator_choice():
    result = ablation_allocator(scale=bench_scale(1.0) * 0.3)
    publish(result)
    # glibc-style allocation is slower on the allocation-heavy subset
    assert result.data["geomean"] > 1.01


def test_ablation_huge_commit_prefilter():
    result = ablation_huge_commit(scale=bench_scale(1.0) * 0.6)
    publish(result)
    assert result.data["benefit_pct"] >= 0


def test_ablation_code_centric_relaxed():
    result = ablation_code_centric(scale=bench_scale(1.0))
    publish(result)
    data = result.data
    assert data["relaxed_fast_path"] > 0
    assert data["with_cc_speedup"] > 1.5
    if "without_speedup" in data:
        # flushing on relaxed atomics forfeits most of the benefit
        assert data["with_cc_speedup"] > data["without_speedup"]
