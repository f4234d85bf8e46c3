"""Table 3: characterization of TMI's repair.

Paper's claims: false sharing is detected within the first couple of
detector intervals ("seconds"); threads convert to processes in under
200 microseconds; commit rates span a wide range with shptr-lock the
clear outlier.
"""

from repro.eval import table3

from conftest import publish


def test_table3_repair_characterization(figure9_result):
    result = table3(figure9_result=figure9_result)
    publish(result)
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
