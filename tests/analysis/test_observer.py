"""The observer spine: one fan-out, one HITM path."""

import inspect

from repro.analysis.ground_truth import HitmGroundTruth
from repro.analysis.observer import EngineObserver, ObserverMux
from repro.baselines.pthreads import PthreadsRuntime
from repro.engine import Engine
from repro.obs import Tracer
from repro.workloads import get as get_workload


class _Recorder:
    """Records every callback it receives, in order."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return lambda *args: self.calls.append((name, args))


def test_mux_fans_out_every_callback():
    children = [_Recorder(), _Recorder()]
    mux = ObserverMux(children)
    expected = []
    for name, member in vars(EngineObserver).items():
        if not name.startswith("on_"):
            continue
        nargs = len(inspect.signature(member).parameters) - 1
        args = tuple(object() for _ in range(nargs))
        getattr(mux, name)(*args)
        expected.append((name, args))
    assert "on_hitm" in dict(expected)
    for child in children:
        assert child.calls == expected


def test_every_observer_sees_every_hitm_once():
    program = get_workload("histogramfs", scale=0.05).build()
    engine = Engine(program, PthreadsRuntime())
    tracer = Tracer()
    truth = HitmGroundTruth()
    engine.attach_observer(tracer)
    engine.attach_observer(truth)
    engine.run()
    assert tracer.counts()["hitm"] == truth.hitm_count == \
        engine.machine.hitm_events == 1611
