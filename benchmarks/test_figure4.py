"""Figure 4: perf sample-period sweep on leveldb.

Paper's claims (shape): small periods cost runtime; larger periods
record fewer HITM events; scaling records by the period estimates the
actual event count.
"""

from repro.eval import figure4

from conftest import bench_scale, publish


def test_figure4_period_sweep():
    result = figure4(scale=bench_scale(1.0) * 2.0)
    publish(result)
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
