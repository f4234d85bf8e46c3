"""Acceptance: observability artifacts are deterministic.

Metrics snapshots and trace data must be byte-identical whether cells
run serially (``REPRO_JOBS=1``) or across worker processes — the same
guarantee the cycle counts already carry.
"""

import json

from repro.eval.parallel import run_cells


def _cells():
    return [dict(name="histogramfs", system="tmi-protect", scale=0.25,
                 collect_metrics=True, trace=True),
            dict(name="histogram", system="pthreads", scale=0.05,
                 collect_metrics=True, trace=True)]


class TestAcrossJobCounts:
    def test_metrics_and_traces_byte_identical(self):
        serial = run_cells(_cells(), jobs=1)
        parallel = run_cells(_cells(), jobs=2)
        for ser, par in zip(serial, parallel):
            assert ser.ok and par.ok
            assert json.dumps(ser.metrics, sort_keys=True) == \
                json.dumps(par.metrics, sort_keys=True)
            assert json.dumps(ser.trace_data, sort_keys=True) == \
                json.dumps(par.trace_data, sort_keys=True)

    def test_metrics_carry_machine_and_runtime_families(self):
        outcome = run_cells(_cells(), jobs=1)[0]
        snap = outcome.metrics
        assert snap["gauges"]["machine.cycles"] == outcome.cycles
        assert "engine.ops" in snap["counters"]
        label = "{system=tmi-protect}"
        assert snap["gauges"][f"runtime.commits{label}"] > 0
        hist = snap["histograms"][f"tmi.commit_size_bytes{label}"]
        assert hist["count"] == snap["gauges"][f"runtime.commits{label}"]
