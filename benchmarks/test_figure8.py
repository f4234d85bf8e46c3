"""Figure 8: memory overhead of TMI-full vs pthreads.

Paper's claims: small-footprint benchmarks pay a roughly fixed ~90 MB
(perf buffers + detector structures); large workloads pay ~19% extra;
lock-heavy workloads (fluidanimate, water-spatial) pay extra for
process-shared sync shadows.
"""

from repro.eval import figure8

from conftest import bench_scale, publish

MB = 1024 * 1024


def test_figure8_memory_overhead():
    result = figure8(scale=bench_scale(1.0) * 0.3)
    publish(result)
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
