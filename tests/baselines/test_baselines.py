"""Sheriff and LASER behaviours the comparison depends on."""

import pytest

from repro.baselines import LaserRuntime, PthreadsRuntime, SheriffRuntime
from repro.core.config import TmiConfig
from repro.engine import Engine
from repro.errors import IncompatibleWorkloadError
from repro.eval import run_workload

from helpers import fs_counter_program


class TestSheriff:
    def test_every_thread_is_a_process(self):
        engine = Engine(fs_counter_program(iters=2_000),
                        SheriffRuntime("protect"))
        engine.run()
        pids = {t.process.pid for t in engine.threads.values()}
        assert len(pids) == len(engine.threads)

    def test_protects_from_startup(self):
        """Sheriff isolates false sharing without any detection delay."""
        base = Engine(fs_counter_program(iters=20_000, compute=100),
                      PthreadsRuntime()).run()
        sheriff = Engine(fs_counter_program(iters=20_000, compute=100),
                         SheriffRuntime("protect")).run()
        assert sheriff.cycles < base.cycles

    def test_commits_at_every_sync_hurt_lock_heavy_code(self):
        outcome_base = run_workload("wordcount", "pthreads", scale=0.2)
        outcome = run_workload("wordcount", "sheriff-detect", scale=0.2)
        assert outcome.ok
        assert outcome.result.cycles > 1.5 * outcome_base.result.cycles

    def test_rejects_native_input_footprints(self):
        program = fs_counter_program(iters=10)
        program.features.footprint_bytes = 1 << 31
        with pytest.raises(IncompatibleWorkloadError):
            Engine(program, SheriffRuntime("detect"))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            SheriffRuntime("turbo")

    def test_results_correct_for_lock_synchronized_code(self):
        """Lemma 3.1: race-free programs are safe under a PTSB."""
        result = Engine(fs_counter_program(iters=5_000),
                        SheriffRuntime("protect")).run()
        assert result.validated


class TestLaser:
    def test_detects_and_instruments_hot_sites(self):
        program = fs_counter_program(iters=40_000)
        runtime = LaserRuntime(TmiConfig())
        result = Engine(program, runtime).run()
        assert result.validated
        assert runtime.instrumented_pcs
        assert runtime.drains > 0

    def test_store_buffer_forwards_own_stores(self):
        """TSO: a thread always sees its own buffered stores, so the
        counter totals stay exact."""
        result = Engine(fs_counter_program(iters=30_000),
                        LaserRuntime(TmiConfig())).run()
        assert result.validated

    def test_repair_gains_less_than_tmi(self):
        from repro.core import TmiRuntime

        base = Engine(fs_counter_program(iters=40_000, compute=100),
                      PthreadsRuntime()).run()
        laser = Engine(fs_counter_program(iters=40_000, compute=100),
                       LaserRuntime(TmiConfig())).run()
        tmi = Engine(fs_counter_program(iters=40_000, compute=100),
                     TmiRuntime("protect")).run()
        laser_speedup = base.cycles / laser.cycles
        tmi_speedup = base.cycles / tmi.cycles
        assert tmi_speedup > laser_speedup

    def test_no_instrumentation_without_false_sharing(self):
        runtime = LaserRuntime(TmiConfig())
        Engine(fs_counter_program(iters=10_000, stride=64),
               runtime).run()
        assert not runtime.instrumented_pcs


class TestGlibcAllocator:
    def test_glibc_slower_than_lockless(self):
        outcome_l = run_workload("kmeans", "pthreads", scale=0.3)
        outcome_g = run_workload("kmeans", "glibc", scale=0.3)
        assert outcome_g.result.cycles > outcome_l.result.cycles


class TestLaserFence:
    def test_fence_drains_the_store_buffer(self):
        """TSO: a fence orders the software store buffer, so a store
        buffered at an instrumented site reaches memory at the fence,
        not at thread exit."""
        from repro.isa import Binary

        from helpers import make_program

        binary = Binary("fence")
        st = binary.store_site("st", 8)
        runtime = LaserRuntime(TmiConfig())
        runtime.instrumented_pcs.add(st.pc)
        seen = {}

        def main(t):
            buf = yield from t.malloc(64, align=64)
            yield from t.store(buf, 7, 8, site=st)
            seen["buffered"] = len(runtime._buffers[t.tid])
            yield from t.fence()
            seen["after_fence"] = len(runtime._buffers[t.tid])
            seen["drains"] = runtime.drains

        result = Engine(make_program(main, binary=binary, nthreads=1),
                        runtime).run()
        assert result.validated
        assert seen == {"buffered": 1, "after_fence": 0, "drains": 1}
