"""Pin: a batched op is the op-at-a-time loop it stands for.

``load_run``/``store_run``/``rmw_seq``/``store_seq`` cost one generator
round-trip per op, but the engine executes them access-by-access and
yields the core exactly where the unbatched loop would.  Four workers,
released together by a barrier, hammer one 8-byte slot each, on
private lines and on one falsely shared line, once through the batched
op and once one op at a time; cycles, HITM counts, data ops, every
core's clock and every loaded value must match.  The same holds under
LASER, whose store buffer intercepts every access of a run.

Contended runs take turns inside one engine call (the band: a thread
that yields to a mid-run thread hands it the core without a trip
through the scheduling loop).  The band pins run the falsely shared
hammer without the vector core, under LASER and under TMI, and check
that every way a band ends leaves the per-op results unchanged.  A run
with no other thread ready stops only at a runtime tick or at the
cycle budget, and the lone-run pins check that it stops at both
exactly where the per-op loop does.
"""

import pytest

from helpers import HAMMER_ROUNDS as ROUNDS
from helpers import HAMMER_RUN as RUN
from helpers import HAMMER_WORKERS as NWORKERS
from helpers import hammer_program as _hammer
from helpers import hammer_round, make_program
from repro.baselines import LaserRuntime
from repro.baselines.pthreads import PthreadsRuntime
from repro.core import TmiConfig, TmiRuntime
from repro.engine import Engine
from repro.errors import CycleBudgetError
from repro.isa import Binary

#: Slot spacing: one line per worker, or four slots on one line.
STRIDES = {"private": 256, "falsely_shared": 8}
#: Data ops per worker round, by kind.
ROUND_OPS = {"store": RUN, "load": RUN + 1, "rmw_seq": 2 * RUN + 1,
             "store_seq": RUN + 1}
#: The shapes workloads lower to ``rmw_seq``: leveldb's counter bumps
#: (no compute) and lu-ncb's daxpy body (cycling over the eight words
#: of the slot's line).  Their rounds are ``rmw_seq`` rounds.
LOWERED_OPS = {"rmw_seq_nocompute": 2 * RUN + 1,
               "rmw_seq_line": 2 * RUN + 1}


def _outcome(engine, loaded):
    result = engine.run()
    return (result.cycles, result.hitm_loads, result.hitm_stores,
            result.data_ops, list(engine.machine.core_clock), loaded)


@pytest.mark.parametrize("slots", sorted(STRIDES))
@pytest.mark.parametrize("kind", sorted(ROUND_OPS) + sorted(LOWERED_OPS))
def test_batched_and_per_op_loops_are_cycle_identical(kind, slots):
    outcomes = {}
    for batched in (True, False):
        program, loaded, _block = _hammer(STRIDES[slots], kind, batched)
        outcomes[batched] = _outcome(Engine(program, PthreadsRuntime()),
                                     loaded)
    assert outcomes[True] == outcomes[False]
    _cycles, hitm_loads, hitm_stores, data_ops = outcomes[True][:4]
    assert data_ops == NWORKERS * ROUNDS * {**ROUND_OPS,
                                            **LOWERED_OPS}[kind]
    if slots == "falsely_shared":
        assert hitm_loads + hitm_stores > 0, "packed slots must contend"


#: Runtimes of the band pins.  Without the vector core every
#: head-ready break between two mid-run threads is a band switch.
#: LASER's detector instruments the hammer's sites at a tick, and from
#: then on its store buffer takes every access (the override lane).
#: TMI's detector ticks and its T2P stop-the-world land inside bands,
#: and after the repair the odd workers' volatile runs are routed
#: around the PTSB.
BAND_SYSTEMS = ("pthreads-serial", "laser", "tmi-protect")


def _band_engine(system, program):
    if system == "laser":
        runtime = LaserRuntime()
    elif system == "tmi-protect":
        runtime = TmiRuntime("protect", TmiConfig())
    else:
        runtime = PthreadsRuntime()
    return Engine(program, runtime, vector=system != "pthreads-serial")


def _repaired(engine):
    """Whether the run's runtime repaired the shared line: LASER
    instrumented a site, or TMI converted the threads to processes."""
    runtime = engine.runtime
    if isinstance(runtime, LaserRuntime):
        return bool(runtime.instrumented_pcs)
    return len(engine.processes) > 1


@pytest.mark.parametrize("kind", sorted(ROUND_OPS))
@pytest.mark.parametrize("system", BAND_SYSTEMS)
def test_contended_bands_match_per_op_loops(system, kind):
    """Four workers' runs on one falsely shared line form bands.  A
    band ends at a run's last sub-op, at a generator thread's ready
    time (the "load" round's store and each round's closing load are
    single ops), at a detector tick, and at TMI's T2P stop-the-world.
    Cycles, HITMs, data ops, core clocks, loaded values and the slots'
    final contents all match the per-op loops."""
    stride = STRIDES["falsely_shared"]
    outcomes = {}
    for batched in (True, False):
        program, loaded, block = _hammer(stride, kind, batched,
                                         volatile=True)
        engine = _band_engine(system, program)
        outcome = _outcome(engine, loaded)
        final = [engine.read_memory(block[0] + i * stride, 8)
                 for i in range(NWORKERS)]
        outcomes[batched] = outcome + (final, _repaired(engine))
    assert outcomes[True] == outcomes[False]
    _cycles, hitm_loads, hitm_stores, data_ops = outcomes[True][:4]
    assert data_ops == NWORKERS * ROUNDS * ROUND_OPS[kind]
    assert hitm_loads + hitm_stores > 0, "packed slots must contend"
    if system != "pthreads-serial" and kind != "load":
        # the repair landed while the workers still ran (the load
        # round reads its neighbours' slots: true sharing, which
        # neither runtime repairs)
        assert outcomes[True][-1]


def _lone(kind, batched):
    """One worker, alone while main waits in join, runs ``ROUNDS``
    rounds of ``kind`` (see :func:`helpers.hammer_round`) on one slot,
    as batched ops or one op at a time."""
    binary = Binary("lone")
    st = binary.store_site("st", 8)
    ld = binary.load_site("ld", 8)
    loaded = []

    def main(t):
        block = yield from t.malloc(4096, align=64)

        def worker(w):
            for r in range(ROUNDS):
                got = yield from hammer_round(w, kind, batched, block, r,
                                              st, ld)
                loaded.append(tuple(got))

        tid = yield from t.spawn(worker, "w")
        yield from t.join(tid)

    return make_program(main, "lone", nthreads=1, binary=binary), loaded


class _TickLog(PthreadsRuntime):
    """pthreads plus a tick every ``tick_cycles`` that records when it
    fired and every core's clock at that point, and counts the ticks
    that found a thread mid-way through a batched op."""

    tick_cycles = 50

    def __init__(self):
        super().__init__()
        self.ticks = []
        self.mid_run = 0

    def on_tick(self, engine, now):
        self.ticks.append((now, tuple(engine.machine.core_clock)))
        self.mid_run += any(thread.run_op is not None
                            for thread in engine.threads.values())


#: Simulated cycles after which the lone runs exhaust their budget:
#: past the worker's start (``pthread_create`` costs 16,000, its first
#: access faults its page in), inside a run of every kind.
LONE_BUDGET = 21_101


@pytest.mark.parametrize("kind", sorted(ROUND_OPS))
def test_lone_runs_stop_at_ticks_and_budget_like_per_op_loops(kind):
    """With nothing else ready a run is never at a head-ready break, so
    only the tick or the budget can stop it mid-way.  Every tick fires
    at the same clocks, with the same outcome, and the budget runs out
    at the same cycle, as in the per-op loop."""
    ticked, budget = {}, {}
    for batched in (True, False):
        program, loaded = _lone(kind, batched)
        runtime = _TickLog()
        ticked[batched] = (_outcome(Engine(program, runtime), loaded),
                           runtime.ticks)
        if batched:
            assert runtime.mid_run > 0, "no tick landed inside a run"
        program, _loaded = _lone(kind, batched)
        engine = Engine(program, PthreadsRuntime(), max_cycles=LONE_BUDGET)
        with pytest.raises(CycleBudgetError) as excinfo:
            engine.run()
        budget[batched] = (excinfo.value.args[:2],
                           list(engine.machine.core_clock))
        if batched:
            assert engine.threads[1].run_op is not None, \
                "the budget must run out inside a run"
    assert ticked[True] == ticked[False]
    assert budget[True] == budget[False]


#: Rounds of the LASER alias case.
ALIAS_ROUNDS = 5
#: Words per load run in the LASER alias case.
ALIAS_WORDS = 4


def _laser_alias(batched):
    """One worker, per round: a 4-byte store at an instrumented site,
    then ``ALIAS_WORDS`` 8-byte loads from the same address on, as one
    ``load_run`` or one op at a time.  The first load aliases the
    buffered store at a different width, so LASER drains its store
    buffer first and charges the drain to the core clock itself."""
    binary = Binary("alias")
    st = binary.store_site("st4", 4)
    ld = binary.load_site("ld", 8)
    loaded = []

    def main(t):
        block = yield from t.malloc(4096, align=64)

        def worker(w):
            for r in range(ALIAS_ROUNDS):
                yield from w.store(block, r + 1, 4, site=st)
                if batched:
                    got = yield from w.load_run(block, ALIAS_WORDS, 8,
                                                site=ld)
                else:
                    got = []
                    for i in range(ALIAS_WORDS):
                        v = yield from w.load(block + i * 8, site=ld)
                        got.append(v)
                loaded.append(tuple(got))

        tid = yield from t.spawn(worker, "w")
        yield from t.join(tid)

    return make_program(main, "alias", nthreads=1, binary=binary), \
        loaded, st


def test_laser_alias_drain_inside_a_run_is_charged():
    """A LASER drain that an access inside a load run triggers is
    charged to the core clock, as it is one op at a time."""
    outcomes = {}
    for batched in (True, False):
        program, loaded, st = _laser_alias(batched)
        runtime = LaserRuntime()
        runtime.instrumented_pcs.add(st.pc)
        engine = Engine(program, runtime)
        outcomes[batched] = _outcome(engine, loaded) + (runtime.drains,)
    assert outcomes[True] == outcomes[False]
    assert outcomes[True][-1] >= ALIAS_ROUNDS, "every round must drain"
