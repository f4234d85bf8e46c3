"""Profiler: exclusive/inclusive accounting and zero cycle impact."""

import time

from repro.eval.runner import run_workload
from repro.obs import Profiler, format_profile


class TestAccounting:
    def test_nested_categories_attribute_self_time_only(self):
        profiler = Profiler()
        with profiler.phase("outer"):
            time.sleep(0.02)
            with profiler.phase("inner"):
                time.sleep(0.02)
        # outer's exclusive time excludes inner; inclusive includes it
        assert profiler.seconds["inner"] >= 0.015
        assert profiler.seconds["outer"] < profiler.inclusive["outer"]
        assert profiler.inclusive["outer"] >= \
            profiler.seconds["outer"] + profiler.seconds["inner"]

    def test_wrap_counts_calls(self):
        class Thing:
            def work(self, x):
                return x + 1

        thing = Thing()
        profiler = Profiler()
        profiler.wrap(thing, "work", "widget")
        assert thing.work(1) == 2
        assert thing.work(2) == 3
        assert profiler.calls["widget"] == 2

    def test_report_includes_engine_self_time(self):
        profiler = Profiler()
        with profiler.phase("run"):
            with profiler.phase("memory-system"):
                pass
        report = profiler.report()
        assert "engine" in report
        assert report["run"]["seconds"] >= report["engine"]["seconds"]

    def test_format_profile_renders_from_plain_dict(self):
        profiler = Profiler()
        with profiler.phase("run"):
            pass
        text = format_profile(profiler.report())
        assert "self-profile" in text
        assert "total" in text


class TestProfiledRun:
    def test_profiled_run_is_cycle_identical(self):
        base = run_workload("histogram", "pthreads", scale=0.05)
        profiled = run_workload("histogram", "pthreads", scale=0.05,
                                profile=True)
        assert profiled.ok
        assert profiled.cycles == base.cycles

    def test_profile_attributes_known_subsystems(self):
        # the runtime's translate sees only routed accesses; this cell
        # keeps routing its relaxed atomics after repair
        outcome = run_workload("shptr-relaxed", "tmi-protect", scale=0.2,
                               profile=True)
        report = outcome.profile
        assert report["memory-system"]["calls"] > 0
        assert report["runtime-translate"]["calls"] > 0
        assert report["detector"]["calls"] > 0
        assert report["engine"]["seconds"] >= 0

    def test_profile_is_picklable(self):
        import pickle

        outcome = run_workload("histogram", "pthreads", scale=0.05,
                               profile=True)
        assert pickle.loads(pickle.dumps(outcome.profile)) == \
            outcome.profile
