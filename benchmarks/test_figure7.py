"""Figure 7: detection overhead across all 35 workloads.

Paper's claims: tmi-detect averages ~2% overhead (max 17%, on kmeans);
tmi-alloc is near-neutral; sheriff-detect is incompatible with most
native inputs (works on 11 of 35) and is expensive where it runs.
"""

from conftest import publish


def test_figure7_detection_overhead(figure7_result):
    result = publish(figure7_result)
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
