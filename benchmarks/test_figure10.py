"""Figure 10: 4KB vs 2MB huge pages for TMI's shared region.

Paper's claims: huge pages give ~6% average speedup; the big-footprint
workloads (canneal, reverse, fft, fmm, ocean-ncp, radix) benefit most
because shared file-backed 4KB faults are expensive; small-footprint
workloads see little change either way.
"""

from repro.eval import figure10

from conftest import bench_scale, publish


def test_figure10_huge_pages():
    result = figure10(scale=bench_scale(1.0))
    publish(result)
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
