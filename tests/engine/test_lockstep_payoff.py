"""Pin: a lockstep window pays for its attempt or backs off.

One lockstep attempt costs the host about as much as 30-40 serial
sub-ops, so a committed window shorter than
:data:`~repro.engine.vector.executor.LOCKSTEP_PAYOFF` sub-ops arms the
cool-down a declined window arms: the next offer
(:meth:`~repro.engine.vector.VectorExecutor.window_due`) declines.  A
window at or over the payoff clears the backoff streak, so the next
offer is taken.  Either way the simulated facts are the serial
interpreter's.
"""

import pytest

from helpers import HAMMER_ROUNDS as ROUNDS
from helpers import HAMMER_RUN as RUN
from helpers import HAMMER_WORKERS as NWORKERS
from helpers import hammer_program
from repro.baselines.pthreads import PthreadsRuntime
from repro.engine import Engine
from repro.engine.vector import VectorExecutor
from repro.engine.vector.executor import LOCKSTEP_PAYOFF

#: Slot spacing: one line per worker, or four slots on one line.
STRIDES = {"private": 256, "falsely_shared": 8}


def _offers(program, monkeypatch):
    """Run ``program`` on the vector core; returns, in order, each
    committed window as ``("window", sub_ops, streak_after)`` and each
    answer of ``window_due`` as ``("offer", answer)``."""
    events = []
    try_lockstep = VectorExecutor.try_lockstep
    window_due = VectorExecutor.window_due

    def recorded_try(self):
        batched, windows = self.batched_ops, self.lockstep_batches
        try_lockstep(self)
        if self.lockstep_batches > windows:
            events.append(("window", self.batched_ops - batched,
                           self._seq_streak))

    def recorded_due(self):
        answer = window_due(self)
        events.append(("offer", answer))
        return answer

    monkeypatch.setattr(VectorExecutor, "try_lockstep", recorded_try)
    monkeypatch.setattr(VectorExecutor, "window_due", recorded_due)
    Engine(program, PthreadsRuntime(), vector=True).run()
    return events


def test_short_windows_back_off_and_long_ones_clear_the_streak(
        monkeypatch):
    """Four workers' ``rmw_seq`` rounds on private lines commit windows
    on both sides of the payoff: after each short one the next offer
    declines; after each long one the streak is zero and the next offer
    is taken."""
    program, _loaded, _block = hammer_program(STRIDES["private"],
                                              "rmw_seq", True)
    events = _offers(program, monkeypatch)
    seen = {"short": 0, "long": 0}
    for at, event in enumerate(events):
        if event[0] != "window":
            continue
        _, sub_ops, streak = event
        nxt = next((e for e in events[at + 1:] if e[0] == "offer"), None)
        if sub_ops < LOCKSTEP_PAYOFF:
            seen["short"] += 1
            assert streak > 0
            assert nxt in (None, ("offer", False))
        else:
            seen["long"] += 1
            assert streak == 0
            assert nxt in (None, ("offer", True))
    assert seen["short"] > 0 and seen["long"] > 0, seen


def _facts(stride, vector):
    program, loaded, block = hammer_program(stride, "rmw_seq", True)
    engine = Engine(program, PthreadsRuntime(), vector=vector)
    result = engine.run()
    final = [engine.read_memory(block[0] + i * stride, 8)
             for i in range(NWORKERS)]
    return (result.cycles, result.hitm_loads, result.hitm_stores,
            result.data_ops, list(engine.machine.core_clock), loaded,
            final), engine


@pytest.mark.parametrize("slots", sorted(STRIDES))
def test_rmw_seq_hammer_same_facts_with_and_without_the_kernel(slots):
    """The ``rmw_seq`` hammer, on private lines (where windows commit)
    and on one falsely shared line (where the band takes the breaks),
    ends with the serial interpreter's cycles, HITMs, data ops, core
    clocks, loaded values and slot contents."""
    on, engine = _facts(STRIDES[slots], True)
    off, _ = _facts(STRIDES[slots], False)
    assert on == off
    assert on[3] == NWORKERS * ROUNDS * (2 * RUN + 1)
    if slots == "private":
        assert engine._vector.lockstep_batches > 0
    else:
        assert on[1] + on[2] > 0, "packed slots must contend"
