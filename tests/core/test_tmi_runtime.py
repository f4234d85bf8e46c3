"""End-to-end TMI runtime behaviour on controlled programs."""

import pytest

from repro.baselines import LaserRuntime, PthreadsRuntime
from repro.core import STAGE_ALLOC, STAGE_DETECT, STAGE_PROTECT
from repro.core import TmiConfig, TmiRuntime
from repro.engine import Engine
from repro.engine import layout
from repro.errors import DetectIntervalError

from helpers import fs_counter_program


def run_tmi(stage=STAGE_PROTECT, config=None, **program_kwargs):
    program = fs_counter_program(**program_kwargs)
    runtime = TmiRuntime(stage, config or TmiConfig())
    engine = Engine(program, runtime)
    return engine.run(), engine, runtime


class TestStages:
    def test_stage_names(self):
        assert TmiRuntime("alloc").name == "tmi-alloc"
        assert TmiRuntime("detect").name == "tmi-detect"
        assert TmiRuntime("protect").name == "tmi-protect"
        with pytest.raises(ValueError):
            TmiRuntime("bogus")

    def test_alloc_stage_has_no_detector(self):
        result, engine, runtime = run_tmi(STAGE_ALLOC, iters=500)
        assert runtime.detector is None
        assert result.validated

    def test_detect_stage_samples_but_never_repairs(self):
        result, engine, runtime = run_tmi(STAGE_DETECT, iters=30_000)
        assert runtime.perf.events_seen > 0
        assert runtime.repair is None
        assert len(engine.processes) == 1      # still one process

    def test_app_memory_is_shm_backed(self):
        _, engine, _ = run_tmi(STAGE_ALLOC, iters=100)
        heap = engine.root_aspace.mapping_at(layout.HEAP_BASE)
        assert heap.backing.file_backed
        stack = engine.root_aspace.mapping_at(layout.stack_base(0))
        assert stack.backing is heap.backing   # one shared region


class TestRepairEndToEnd:
    def test_repair_triggers_on_false_sharing(self):
        result, engine, runtime = run_tmi(iters=30_000)
        assert result.validated
        report = result.runtime_report
        assert report["repaired"]
        assert report["protected_pages"] >= 1
        assert report["t2p_us"] > 0
        # every live thread became its own process
        pids = {t.process.pid for t in engine.threads.values()}
        assert len(pids) == len(engine.threads)

    def test_repair_gives_speedup(self):
        baseline = Engine(fs_counter_program(iters=30_000, compute=100),
                          PthreadsRuntime()).run()
        repaired, _, _ = run_tmi(iters=30_000, compute=100)
        assert baseline.cycles > 1.5 * repaired.cycles

    def test_no_repair_without_false_sharing(self):
        result, engine, runtime = run_tmi(iters=20_000, stride=64)
        assert not result.runtime_report["repaired"]
        assert len(engine.processes) == 1

    def test_repair_disabled_by_config(self):
        config = TmiConfig(enable_repair=False)
        result, engine, _ = run_tmi(config=config, iters=30_000)
        assert not result.runtime_report["repaired"]

    def test_detect_overhead_small_without_contention(self):
        base = Engine(fs_counter_program(iters=20_000, stride=64,
                                         compute=60),
                      PthreadsRuntime()).run()
        detect, _, _ = run_tmi(STAGE_DETECT, iters=20_000, stride=64,
                               compute=60)
        overhead = detect.cycles / base.cycles - 1
        assert overhead < 0.10, overhead

    def test_huge_page_split_keeps_commits_small(self):
        config = TmiConfig(huge_pages=True, repair_page_split=True)
        result, engine, runtime = run_tmi(config=config, iters=30_000)
        assert result.validated
        if result.runtime_report["repaired"]:
            for page, size in runtime.repair.protected_pages.items():
                assert size == 4096

    def test_threads_created_after_repair_are_adopted(self):
        """pthread_create during the repaired phase: the child must be
        its own process with the same protections."""
        from repro.isa import Binary
        from repro.engine import Program

        binary = Binary("late")
        ld = binary.load_site("ld", 8)
        st = binary.store_site("st", 8)

        def main(t):
            buf = yield from t.malloc(4096, align=64)

            def worker(w):
                slot = buf + (w.tid % 8) * 8
                for _ in range(15_000):
                    value = yield from w.load(slot, 8, site=ld)
                    yield from w.store(slot, value + 1, 8, site=st)

            tids = []
            for _ in range(3):
                tid = yield from t.spawn(worker)
                tids.append(tid)
            for tid in tids:
                yield from t.join(tid)
            late = yield from t.spawn(worker, "late")
            yield from t.join(late)

        program = Program("late", binary, main, nthreads=4)
        runtime = TmiRuntime("protect")
        engine = Engine(program, runtime)
        engine.run()
        if runtime.repair.converted:
            late_thread = engine.threads[max(engine.threads)]
            assert len(late_thread.process.threads) == 1
            assert late_thread.process.ptsb is not None


class TestMemoryReport:
    def test_detect_reports_fixed_overheads(self):
        result, _, _ = run_tmi(STAGE_DETECT, iters=2_000)
        memory = result.memory_bytes
        assert memory["perf_buffers"] > 0
        assert memory["detector"] > 20 * 1024 * 1024

    def test_alloc_stage_reports_nothing_extra(self):
        result, _, _ = run_tmi(STAGE_ALLOC, iters=500)
        assert set(result.memory_bytes) == {"application"}


class TestMetrics:
    def test_report_is_the_metrics_and_the_histogram_is_extra(self):
        """TMI's facts reach the registry once, as ``runtime.*``
        gauges of its report; only the commit-size distribution, which
        a flat report cannot carry, is a ``tmi.*`` instrument."""
        from repro.eval.runner import run_workload
        outcome = run_workload("histogramfs", "tmi-protect", scale=0.1,
                               collect_metrics=True)
        snap = outcome.metrics
        label = "{system=tmi-protect}"
        tmi = [key for family in ("counters", "gauges", "histograms")
               for key in snap[family] if key.startswith("tmi.")]
        assert tmi == [f"tmi.commit_size_bytes{label}"]
        commits = snap["gauges"][f"runtime.commits{label}"]
        assert commits > 0
        assert snap["histograms"][tmi[0]]["count"] == commits
        assert snap["gauges"][f"runtime.twin_bytes_peak{label}"] == \
            outcome.result.runtime_report["twin_bytes_peak"]
        # the twins reach the report only through the commits at
        # thread exit: their peak counts, twice in the PTSB memory
        assert outcome.result.runtime_report["twin_bytes_peak"] == 8192
        assert outcome.result.memory_bytes["ptsb"] == 16384
        assert outcome.result.cycles == 1_101_961


#: The runtimes that tick a detector.
TICKING = ("tmi-detect", "tmi-protect", "laser")


def ticking_runtime(system, config):
    if system == "laser":
        return LaserRuntime(config)
    return TmiRuntime(system.split("-")[1], config)


class TestDetectInterval:
    """Each tick charges the service core at least
    ``CostModel.detect_fixed``, so an interval no longer than that
    leaves the next tick due after every tick, and the loop would run
    ticks after every op until the cycle budget."""

    @pytest.mark.parametrize("interval", [20_000, 50_000])
    @pytest.mark.parametrize("system", TICKING)
    def test_refused_at_setup(self, system, interval):
        runtime = ticking_runtime(
            system, TmiConfig(detect_interval_cycles=interval, period=5))
        with pytest.raises(DetectIntervalError) as info:
            Engine(fs_counter_program(iters=100), runtime)
        assert (info.value.interval, info.value.detect_fixed) == \
            (interval, 50_000)
        assert f"{interval}" in str(info.value)
        assert "50000" in str(info.value)

    @pytest.mark.parametrize("system", TICKING)
    def test_an_interval_above_the_fixed_cost_is_accepted(self, system):
        runtime = ticking_runtime(
            system, TmiConfig(detect_interval_cycles=50_001))
        Engine(fs_counter_program(iters=100), runtime)

    def test_alloc_stage_never_ticks(self):
        result, _, _ = run_tmi(
            STAGE_ALLOC, TmiConfig(detect_interval_cycles=20_000),
            iters=100)
        assert result.validated

    @pytest.mark.parametrize("config", [
        TmiConfig(), TmiConfig(period=10), TmiConfig(huge_pages=False),
        TmiConfig(targeted=False),
        TmiConfig(huge_pages=True, repair_page_split=False),
        TmiConfig(flush_relaxed=True)],
        ids=["default", "period", "4k-pages", "everywhere",
             "huge-commit", "flush-relaxed"])
    @pytest.mark.parametrize("system", TICKING)
    def test_every_experiment_config_still_runs(self, system, config):
        """The configs the experiments build keep the default
        interval, and run."""
        program = fs_counter_program(iters=2_000)
        result = Engine(program, ticking_runtime(system, config)).run()
        assert result.validated
