"""Figure 9: speedup over pthreads for the false-sharing suite.

Paper's claims (shape, not absolute):
- TMI speeds up every repaired workload except the pathological
  shptr-lock (1.04x there);
- TMI lands close to the manual fix (88% on average in the paper);
- Sheriff cannot run lu-ncb, leveldb, or shptr-relaxed;
- LASER captures only a small fraction of the manual speedup;
- code-centric consistency makes shptr-relaxed far better than
  shptr-lock under TMI.
"""

from conftest import publish


def test_figure9_repair_speedups(figure9_result):
    result = publish(figure9_result)
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
