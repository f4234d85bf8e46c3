"""Pin: a batched op is the op-at-a-time loop it stands for.

``load_run``/``store_run``/``rmw_seq``/``store_seq`` cost one generator
round-trip per op, but the engine executes them access-by-access and
yields the core exactly where the unbatched loop would.  Four workers,
released together by a barrier, hammer one 8-byte slot each, on
private lines and on one falsely shared line, once through the batched
op and once one op at a time; cycles, HITM counts, data ops, every
core's clock and every loaded value must match.  The same holds under
LASER, whose store buffer intercepts every access of a run.
"""

import pytest

from helpers import make_program
from repro.baselines import LaserRuntime
from repro.baselines.pthreads import PthreadsRuntime
from repro.engine import Engine
from repro.isa import Binary

NWORKERS = 4
ROUNDS = 40
#: Accesses per run: stores of the slot, or loads of consecutive words
#: from the start of the slot's line (two lines' worth).  Sequence
#: kinds run this many elements.
RUN = 16
#: Compute cycles after each sequence element.
COMPUTE = 5
#: Slot spacing: one line per worker, or four slots on one line.
STRIDES = {"private": 256, "falsely_shared": 8}
#: Data ops per worker round, by kind.
ROUND_OPS = {"store": RUN, "load": RUN + 1, "rmw_seq": 2 * RUN + 1,
             "store_seq": RUN + 1}


def _round(w, kind, batched, slot, r, st, ld):
    """One worker round of ``kind``; returns the values it loaded.

    "store": ``RUN`` stores of the slot.  "load": one store of the
    slot, then ``RUN`` loads of consecutive words from the start of its
    line.  "rmw_seq": ``RUN`` load/add/store/compute increments of the
    slot, then one load of it.  "store_seq": ``RUN`` store/compute
    steps of distinct values to the slot, then one load of it.
    """
    value = w.tid * 1000 + r
    if kind == "store":
        if batched:
            yield from w.store_run(slot, value, RUN, 0, site=st)
        else:
            for _ in range(RUN):
                yield from w.store(slot, value, site=st)
        return []
    if kind == "load":
        yield from w.store(slot, value, site=st)
        line = slot & ~63
        if batched:
            got = yield from w.load_run(line, RUN, 8, site=ld)
            return got
        got = []
        for i in range(RUN):
            v = yield from w.load(line + i * 8, site=ld)
            got.append(v)
        return got
    if kind == "rmw_seq":
        if batched:
            yield from w.rmw_seq([slot] * RUN, 8, w.tid, COMPUTE,
                                 load_site=ld, store_site=st)
        else:
            for _ in range(RUN):
                v = yield from w.load(slot, site=ld)
                yield from w.store(slot, v + w.tid, site=st)
                yield from w.compute(COMPUTE)
    else:
        values = [value + i for i in range(RUN)]
        if batched:
            yield from w.store_seq(slot, values, 8, COMPUTE, site=st)
        else:
            for v in values:
                yield from w.store(slot, v, site=st)
                yield from w.compute(COMPUTE)
    got = yield from w.load(slot, site=ld)
    return [got]


def _hammer(slot_stride, kind, batched):
    """Per round, each worker runs one ``kind`` round (see
    :func:`_round`) as one batched op or one op at a time.  Returns the
    program and the list its workers append their loaded values to."""
    binary = Binary("hammer")
    st = binary.store_site("st", 8)
    ld = binary.load_site("ld", 8)
    loaded = []

    def main(t):
        block = yield from t.malloc(4096, align=64)
        start = yield from t.barrier(NWORKERS, "start")

        def worker(w):
            slot = block + (w.tid - 1) * slot_stride
            # overlap the workers: pthread_create staggers their starts
            # by more than a whole worker's run
            yield from w.barrier_wait(start)
            for r in range(ROUNDS):
                got = yield from _round(w, kind, batched, slot, r, st, ld)
                if got:
                    loaded.append((w.tid, r, tuple(got)))

        tids = []
        for i in range(NWORKERS):
            tid = yield from t.spawn(worker, f"w{i}")
            tids.append(tid)
        for tid in tids:
            yield from t.join(tid)

    return make_program(main, "hammer", nthreads=NWORKERS,
                        binary=binary), loaded


def _outcome(engine, loaded):
    result = engine.run()
    return (result.cycles, result.hitm_loads, result.hitm_stores,
            result.data_ops, list(engine.machine.core_clock), loaded)


@pytest.mark.parametrize("slots", sorted(STRIDES))
@pytest.mark.parametrize("kind", sorted(ROUND_OPS))
def test_batched_and_per_op_loops_are_cycle_identical(kind, slots):
    outcomes = {}
    for batched in (True, False):
        program, loaded = _hammer(STRIDES[slots], kind, batched)
        outcomes[batched] = _outcome(Engine(program, PthreadsRuntime()),
                                     loaded)
    assert outcomes[True] == outcomes[False]
    _cycles, hitm_loads, hitm_stores, data_ops = outcomes[True][:4]
    assert data_ops == NWORKERS * ROUNDS * ROUND_OPS[kind]
    if slots == "falsely_shared":
        assert hitm_loads + hitm_stores > 0, "packed slots must contend"


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
