"""Pin: an AccessRun is the op-at-a-time loop it stands for.

``load_run``/``store_run`` cost one generator round-trip per run, but
the engine executes a run access-by-access and yields the core exactly
where the unbatched loop would.  Four workers, released together by a
barrier, hammer one 8-byte slot each, on private lines and on one
falsely shared line, once through AccessRuns and once one op at a
time; cycles, HITM counts, data ops, every core's clock and every
loaded value must match.
"""

import pytest

from helpers import make_program
from repro.baselines.pthreads import PthreadsRuntime
from repro.engine import Engine
from repro.isa import Binary

NWORKERS = 4
ROUNDS = 40
#: Accesses per run: stores of the slot, or loads of consecutive words
#: from the start of the slot's line (two lines' worth).
RUN = 16
#: Slot spacing: one line per worker, or four slots on one line.
STRIDES = {"private": 256, "falsely_shared": 8}


def _hammer(slot_stride, kind, batched):
    """Per round, each worker stores its slot ``RUN`` times (``kind``
    "store"), or stores it once and then loads ``RUN`` consecutive
    words from the start of the slot's line (``kind`` "load"), as one
    AccessRun or one op at a time.  Returns the program and the list
    its workers append their loaded values to."""
    binary = Binary("hammer")
    st = binary.store_site("st", 8)
    ld = binary.load_site("ld", 8)
    loaded = []

    def main(t):
        block = yield from t.malloc(4096, align=64)
        start = yield from t.barrier(NWORKERS, "start")

        def worker(w):
            slot = block + (w.tid - 1) * slot_stride
            line = slot & ~63
            # overlap the workers: pthread_create staggers their starts
            # by more than a whole worker's run
            yield from w.barrier_wait(start)
            for r in range(ROUNDS):
                value = w.tid * 1000 + r
                if kind == "store":
                    if batched:
                        yield from w.store_run(slot, value, RUN, 0,
                                               site=st)
                    else:
                        for _ in range(RUN):
                            yield from w.store(slot, value, site=st)
                    continue
                yield from w.store(slot, value, site=st)
                if batched:
                    got = yield from w.load_run(line, RUN, 8, site=ld)
                else:
                    got = []
                    for i in range(RUN):
                        v = yield from w.load(line + i * 8, site=ld)
                        got.append(v)
                loaded.append((w.tid, r, tuple(got)))

        tids = []
        for i in range(NWORKERS):
            tid = yield from t.spawn(worker, f"w{i}")
            tids.append(tid)
        for tid in tids:
            yield from t.join(tid)

    return make_program(main, "hammer", nthreads=NWORKERS,
                        binary=binary), loaded


@pytest.mark.parametrize("slots", sorted(STRIDES))
@pytest.mark.parametrize("kind", ["store", "load"])
def test_batched_and_per_op_loops_are_cycle_identical(kind, slots):
    outcomes = {}
    for batched in (True, False):
        program, loaded = _hammer(STRIDES[slots], kind, batched)
        engine = Engine(program, PthreadsRuntime())
        result = engine.run()
        outcomes[batched] = (result.cycles, result.hitm_loads,
                             result.hitm_stores, result.data_ops,
                             list(engine.machine.core_clock), loaded)
    assert outcomes[True] == outcomes[False]
    _cycles, hitm_loads, hitm_stores, data_ops = outcomes[True][:4]
    assert data_ops == NWORKERS * ROUNDS * (RUN if kind == "store"
                                            else RUN + 1)
    if slots == "falsely_shared":
        assert hitm_loads + hitm_stores > 0, "packed slots must contend"
