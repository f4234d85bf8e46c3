"""Differential pin: vector-on and vector-off runs are byte-identical.

The vector core is a host-speed optimization with a hard exactness
contract: simulated cycles, HITM counts, final-state digests, metrics
snapshots, and typed failures (``CycleBudgetError``,
``InvalidProgramError``) must not move by a single cycle.  These tests
run representative repair-suite cells and targeted failure, tick and
routing shapes both ways and compare everything observable.
"""

import pytest

from helpers import make_program
from repro.baselines.pthreads import PthreadsRuntime
from repro.core.ptsb import PageTwinningStoreBuffer
from repro.core.runtime import TmiRuntime
from repro.engine import Engine
from repro.errors import CycleBudgetError, InvalidProgramError
from repro.eval.runner import run_workload
from repro.isa import Binary
from repro.isa import ops as O

#: Representative repair-suite cells: seq-heavy kernels (histogram,
#: lreg), AccessRun-heavy (stringmatch), repaired layouts where long
#: uncontended windows form (manual), a sync-heavy cell
#: (spinlockpool), and TMI: a cell that repairs and then batches its
#: PTSB pages (lreg/tmi-protect), one whose detector tick bounds every
#: lockstep window (histogram/tmi-detect), and cells that keep routing
#: accesses through the runtime's translate after the threads become
#: processes (shptr-relaxed, leveldb-fs).
CELLS = [
    ("histogramfs", "pthreads"),
    ("histogram", "manual"),
    ("lreg", "manual"),
    ("stringmatch", "pthreads"),
    ("leveldb-fs", "tmi-protect"),
    ("spinlockpool", "pthreads"),
    ("lreg", "tmi-protect"),
    ("histogram", "tmi-detect"),
    ("shptr-relaxed", "tmi-protect"),
]

#: Cells the vector core must actually batch: a gate that silently
#: closes again leaves them byte-identical but serial.
MUST_BATCH = {("lreg", "tmi-protect")}


def observable(outcome):
    result = outcome.result
    metrics = {key: value
               for key, value in outcome.metrics["counters"].items()
               if not key.startswith("vector.")}
    return {
        "status": outcome.status,
        "cycles": result.cycles if result else None,
        "hitm": ((result.hitm_loads, result.hitm_stores)
                 if result else None),
        "data_ops": result.data_ops if result else None,
        "sync_ops": result.sync_ops if result else None,
        "final_state": outcome.final_state,
        "counters": metrics,
        "gauges": outcome.metrics["gauges"],
    }


@pytest.mark.parametrize("name,system", CELLS)
def test_repair_cell_identical_both_ways(name, system):
    on = run_workload(name, system, scale=0.05, collect_state=True,
                      collect_metrics=True, vector=True)
    off = run_workload(name, system, scale=0.05, collect_state=True,
                       collect_metrics=True, vector=False)
    assert observable(on) == observable(off)
    if (name, system) in MUST_BATCH:
        assert on.metrics["counters"]["vector.batched_ops"] > 0


# ----------------------------------------------------------------------
# typed-error parity
# ----------------------------------------------------------------------
def _budget_program(shape):
    """Two workers hammering private lines through batched ops (an
    AccessRun runs serially, a sequence in lockstep windows); long
    enough that a small budget runs out mid-batch."""
    binary = Binary("budget")
    st = binary.store_site("st", 8)
    ld = binary.load_site("ld", 8)

    def main(t):
        block = yield from t.malloc(4096, align=64)

        def worker(w):
            base = block + (w.tid - 1) * 1024
            for _ in range(40):
                if shape == "run":
                    yield from w.store_run(base, 7, count=512,
                                           stride=0, width=8, site=st)
                else:
                    addrs = tuple(base + (i % 64) * 8
                                  for i in range(256))
                    yield from w.rmw_seq(addrs, 8, 1, 5, load_site=ld,
                                         store_site=st)

        tids = []
        for i in range(2):
            tid = yield from t.spawn(worker, f"w{i}")
            tids.append(tid)
        for tid in tids:
            yield from t.join(tid)

    return make_program(main, "budget", nthreads=2, binary=binary)


@pytest.mark.parametrize("shape", ["run", "seq"])
def test_budget_exhaustion_mid_batch_same_cycle(shape):
    """CycleBudgetError must fire at the identical simulated cycle
    whether the budget ran out inside a vector batch or on the serial
    path (regression: a kernel overrunning ``max_cycles`` would
    report a later exhaustion point)."""
    outcomes = {}
    for vector in (True, False):
        engine = Engine(_budget_program(shape), PthreadsRuntime(),
                        vector=vector, max_cycles=40_000)
        with pytest.raises(CycleBudgetError) as excinfo:
            engine.run()
        outcomes[vector] = (excinfo.value.args[:2],
                            engine.machine.now,
                            list(engine.machine.core_clock))
    assert outcomes[True] == outcomes[False]


# ----------------------------------------------------------------------
# fallback boundaries: runtime ticks and routed runs
# ----------------------------------------------------------------------
class _TickRecorder(PthreadsRuntime):
    """pthreads plus a periodic tick that records when it fired and
    every core's clock at that point.  Now and then the tick models a
    long detector pass: the service core runs ahead of the workers, so
    the next ticks come due while the workers' clocks are still below
    them."""

    tick_cycles = 2_000

    def __init__(self):
        super().__init__()
        self.ticks = []

    def on_tick(self, engine, now):
        clock = engine.machine.core_clock
        self.ticks.append((now, tuple(clock)))
        if len(self.ticks) % 5 == 3:
            clock[engine.service_core] = max(clock) + 3 * self.tick_cycles


@pytest.mark.parametrize("shape", ["seq"])
def test_lockstep_is_tick_bounded(shape):
    """An armed runtime tick bounds the lockstep kernel instead of
    shutting it off: every tick fires at the same point of every
    core's clock, and every clock ends the same, whether lockstep
    windows ran or not."""
    outcomes = {}
    for vector in (True, False):
        runtime = _TickRecorder()
        engine = Engine(_budget_program(shape), runtime, vector=vector)
        engine.run()
        outcomes[vector] = (runtime.ticks, list(engine.machine.core_clock),
                            engine.machine.now)
        if vector:
            assert engine._vector.lockstep_batches > 0
    assert outcomes[True][0]
    assert outcomes[True] == outcomes[False]


class _RoutedRuntime(TmiRuntime):
    """TMI's shared layout and code-centric ``translate``, with every
    worker born a process whose PTSB routes around it and whose block
    page is protected."""

    def __init__(self, env):
        super().__init__(stage="alloc")
        self.env = env

    def on_thread_created(self, engine, thread):
        super().on_thread_created(engine, thread)
        if thread.name == "main":
            return
        process = engine.convert_thread_to_process(thread)
        PageTwinningStoreBuffer(process, engine.machine, engine.costs,
                                routed=True)
        process.aspace.protect_page(self.env["block"])


def _routed_program(env, nworkers):
    """Workers that write their slot through the PTSB's private frame
    (batchable) and then, volatile, through the always-shared one
    (routed: the kernel must decline)."""
    binary = Binary("routed")
    st = binary.store_site("st", 8)
    ld = binary.load_site("ld", 8)

    def main(t):
        block = yield from t.malloc(4096, align=4096)
        env["block"] = block

        def worker(w):
            slot = block + (w.tid - 1) * 512
            addrs = tuple(slot + (i % 8) * 8 for i in range(4096))
            for volatile in (False, True):
                yield from w.store_run(slot, 1, count=2048, stride=0,
                                       width=8, site=st, volatile=volatile)
                yield from w.rmw_seq(addrs, 8, 1, 5, load_site=ld,
                                     store_site=st, volatile=volatile)

        tids = []
        for i in range(nworkers):
            tid = yield from t.spawn(worker, f"w{i}")
            tids.append(tid)
        for tid in tids:
            yield from t.join(tid)
        env["final"] = yield from t.load_run(block, 128, 8, site=ld)

    return make_program(main, "routed", nthreads=nworkers, binary=binary)


@pytest.mark.parametrize("nworkers", [1, 2])
def test_routed_runs_match_serial(nworkers):
    """A routed process's PTSB pages batch, but its volatile runs go
    through the runtime's translate to the shared frame: the lockstep
    kernel must decline them, or the values land in the private frame.
    A lone worker forms no window, so only two workers must batch."""
    outcomes = {}
    for vector in (True, False):
        env = {}
        engine = Engine(_routed_program(env, nworkers), _RoutedRuntime(env),
                        vector=vector)
        engine.run()
        outcomes[vector] = (env["final"], list(engine.machine.core_clock))
        if vector and nworkers > 1:
            assert engine._vector.batched_ops > 0
    assert outcomes[True] == outcomes[False]


@pytest.mark.parametrize("field", ["count", "width"])
def test_malformed_run_same_typed_error(field):
    """A malformed AccessRun raises InvalidProgramError before a
    single access executes, with or without the vector core."""
    binary = Binary("malformed")
    site = binary.store_site("st", 8)
    bad = O.AccessRun(site, 0x1000, count=0, stride=8, width=8,
                      is_write=True, value=1) if field == "count" \
        else O.AccessRun(site, 0x1000, count=4, stride=8, width=0,
                         is_write=True, value=1)

    def main(t):
        yield from t.compute(10)
        yield bad

    cycles = {}
    for vector in (True, False):
        engine = Engine(make_program(main, "malformed", nthreads=1,
                                     binary=binary),
                        PthreadsRuntime(), vector=vector)
        with pytest.raises(InvalidProgramError):
            engine.run()
        cycles[vector] = engine.machine.now
    assert cycles[True] == cycles[False]
