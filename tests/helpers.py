"""Shared program builders for the test suite."""

import os
import random
import shutil

from repro.baselines.pthreads import PthreadsRuntime
from repro.engine import Engine, Program
from repro.isa import Binary
from repro.sim.costs import CostModel
from repro.sim.machine import Machine
from repro.sim.physmem import PhysicalMemory


def make_program(main, name="test", nthreads=4, binary=None, **kwargs):
    """Wrap a main generator function into a Program."""
    return Program(name, binary or Binary(name), main,
                   nthreads=nthreads, **kwargs)


def run_program(main, runtime=None, name="test", nthreads=4, binary=None,
                policy=None, max_cycles=None, **kwargs):
    """Build + run a program; returns (RunResult, Engine).

    ``policy`` is a :class:`repro.schedule.SchedulePolicy` (or spec
    dict) to run under; ``max_cycles`` bounds the simulated budget.
    """
    program = make_program(main, name, nthreads, binary, **kwargs)
    engine_kwargs = {}
    if policy is not None:
        from repro.schedule import make_policy
        engine_kwargs["policy"] = make_policy(policy)
    if max_cycles is not None:
        engine_kwargs["max_cycles"] = max_cycles
    engine = Engine(program, runtime or PthreadsRuntime(),
                    **engine_kwargs)
    result = engine.run()
    return result, engine


def fs_counter_program(iters=2000, stride=8, nworkers=4, compute=0,
                       name="fscounter", env=None):
    """Per-thread counters ``stride`` bytes apart: stride=8 falsely
    shares one line; stride=64 is the padded manual fix."""
    binary = Binary(name)
    ld = binary.load_site("ld", 8)
    st = binary.store_site("st", 8)
    program_box = {}

    def main(t):
        buf = yield from t.malloc(4096, align=64)
        program_box["buf"] = buf

        def worker(w):
            slot = buf + (w.tid - 1) * stride
            for _ in range(iters):
                value = yield from w.load(slot, 8, site=ld)
                yield from w.store(slot, value + 1, 8, site=st)
                if compute:
                    yield from w.compute(compute)

        tids = []
        for i in range(nworkers):
            tid = yield from t.spawn(worker, f"w{i}")
            tids.append(tid)
        for tid in tids:
            yield from t.join(tid)
        total = 0
        for i in range(nworkers):
            total += yield from t.load(buf + i * stride, 8, site=ld)
        program_box["total"] = total

    def validate(env_, engine):
        assert program_box["total"] == iters * nworkers, program_box

    program = Program(name, binary, main, nthreads=nworkers)
    program.validate = validate
    program.env = program_box
    return program


#: The access-run hammer (:func:`hammer_program`): its workers and
#: rounds, the accesses per run (stores of the slot, or loads of
#: consecutive words from the start of the slot's line, two lines'
#: worth; sequence kinds run this many elements), and the compute
#: cycles after each sequence element.
HAMMER_WORKERS = 4
HAMMER_ROUNDS = 40
HAMMER_RUN = 16
HAMMER_COMPUTE = 5


def hammer_round(w, kind, batched, slot, r, st, ld, vol=False):
    """One worker round of ``kind``; returns the values it loaded.

    "store": ``HAMMER_RUN`` stores of the slot.  "load": one store of
    the slot, then ``HAMMER_RUN`` loads of consecutive words from the
    start of its line.  "rmw_seq": ``HAMMER_RUN``
    load/add/store/compute increments of the slot, then one load of
    it; "rmw_seq_nocompute" the same with no compute (leveldb's
    counter bumps), and "rmw_seq_line" over the eight words of the
    slot's line in turn (lu-ncb's daxpy body).  "store_seq":
    ``HAMMER_RUN`` store/compute steps of distinct values to the slot,
    then one load of it.  ``vol`` makes every access of the round
    volatile.
    """
    run = HAMMER_RUN
    value = w.tid * 1000 + r
    if kind == "store":
        if batched:
            yield from w.store_run(slot, value, run, 0, site=st,
                                   volatile=vol)
        else:
            for _ in range(run):
                yield from w.store(slot, value, site=st, volatile=vol)
        return []
    if kind == "load":
        yield from w.store(slot, value, site=st, volatile=vol)
        line = slot & ~63
        if batched:
            got = yield from w.load_run(line, run, 8, site=ld,
                                        volatile=vol)
            return got
        got = []
        for i in range(run):
            v = yield from w.load(line + i * 8, site=ld, volatile=vol)
            got.append(v)
        return got
    if kind.startswith("rmw_seq"):
        compute = 0 if kind == "rmw_seq_nocompute" else HAMMER_COMPUTE
        if kind == "rmw_seq_line":
            addrs = [(slot & ~63) + (i % 8) * 8 for i in range(run)]
        else:
            addrs = [slot] * run
        if batched:
            yield from w.rmw_seq(addrs, 8, w.tid, compute, load_site=ld,
                                 store_site=st, volatile=vol)
        else:
            for addr in addrs:
                v = yield from w.load(addr, site=ld, volatile=vol)
                yield from w.store(addr, v + w.tid, site=st, volatile=vol)
                if compute:
                    yield from w.compute(compute)
    else:
        values = [value + i for i in range(run)]
        if batched:
            yield from w.store_seq(slot, values, 8, HAMMER_COMPUTE,
                                   site=st, volatile=vol)
        else:
            for v in values:
                yield from w.store(slot, v, site=st, volatile=vol)
                yield from w.compute(HAMMER_COMPUTE)
    got = yield from w.load(slot, site=ld, volatile=vol)
    return [got]


def hammer_program(slot_stride, kind, batched, volatile=False):
    """Per round, each of ``HAMMER_WORKERS`` workers, released together
    by a barrier, runs one ``kind`` round (see :func:`hammer_round`) on
    its slot, ``slot_stride`` bytes from the last, as one batched op or
    one op at a time; with ``volatile`` the odd workers' accesses are
    volatile.  Returns the program, the list its workers append their
    loaded values to, and the one-element list main puts the slots'
    block in."""
    binary = Binary("hammer")
    st = binary.store_site("st", 8)
    ld = binary.load_site("ld", 8)
    loaded = []
    block_box = []

    def main(t):
        block = yield from t.malloc(4096, align=64)
        block_box.append(block)
        start = yield from t.barrier(HAMMER_WORKERS, "start")

        def worker(w):
            slot = block + (w.tid - 1) * slot_stride
            vol = volatile and w.tid % 2 == 1
            # overlap the workers: pthread_create staggers their starts
            # by more than a whole worker's run
            yield from w.barrier_wait(start)
            for r in range(HAMMER_ROUNDS):
                got = yield from hammer_round(w, kind, batched, slot, r,
                                              st, ld, vol)
                if got:
                    loaded.append((w.tid, r, tuple(got)))

        tids = []
        for i in range(HAMMER_WORKERS):
            tid = yield from t.spawn(worker, f"w{i}")
            tids.append(tid)
        for tid in tids:
            yield from t.join(tid)

    return make_program(main, "hammer", nthreads=HAMMER_WORKERS,
                        binary=binary), loaded, block_box


_WORD = 0xFFFFFFFFFFFFFFFF


def random_program(seed, nthreads=3, nlocks=2, nlines=4,
                   ops_per_thread=40, env=None, batched=False):
    """Seeded random lock-disciplined program (threads x locks x
    shared cache lines).

    Every shared line is guarded by a fixed lock (``line % nlocks``)
    and all its updates use one commutative operator (add or xor,
    chosen per line), so the program is race-free *and* confluent: any
    legal interleaving produces the same final memory.  That makes the
    family a schedule-fuzzing oracle — ``env["finals"]`` must equal
    ``env["expected"]`` under every policy and seed.

    ``batched=True`` additionally interleaves private batched
    stretches (``load_run``/``store_run``/``rmw_seq``/``store_seq``
    over a per-thread block) between the locked shared updates —
    without touching the shared-line oracle — and starts the workers
    together at a barrier, so their sequence ops overlap in time and
    the vector executor's lockstep windows form.  The default stays
    byte-identical to the original generator (the rng consumes the
    same stream).

    Returns the Program; ``env`` (or the passed-in dict) carries
    ``buf``, ``finals`` and the statically computed ``expected``.
    """
    rng = random.Random(seed)
    name = f"rand{seed}"
    binary = Binary(name)
    ld = binary.load_site("ld", 8)
    st = binary.store_site("st", 8)
    env = {} if env is None else env
    line_kind = [rng.choice(("add", "xor")) for _ in range(nlines)]
    plans = []
    for _ in range(nthreads):
        steps = []
        for _ in range(ops_per_thread):
            if batched and rng.random() < 0.4:
                kind = rng.choice(("load_run", "store_run",
                                   "rmw_seq", "store_seq"))
                count = rng.randrange(4, 48)
                off = rng.randrange(0, 8) * 8
                compute = rng.choice((0, 0, 3, 17))
                operand = rng.randrange(1, 1 << 20)
                steps.append(("batch", kind, count, off, compute,
                              operand))
                continue
            line = rng.randrange(nlines)
            operand = rng.randrange(1, 1 << 30)
            delay = rng.choice((0, 0, 60, 200))
            steps.append(("shared", line, operand, delay))
        plans.append(steps)

    expected = [0] * nlines
    for steps in plans:
        for step in steps:
            if step[0] != "shared":
                continue
            _, line, operand, _delay = step
            if line_kind[line] == "add":
                expected[line] = (expected[line] + operand) & _WORD
            else:
                expected[line] ^= operand
    env["expected"] = expected

    #: Per-thread private block: 8 lines, disjoint across threads.
    PRIV = 512

    def main(t):
        buf = yield from t.malloc(64 * nlines + 64, align=64)
        env["buf"] = buf
        priv = 0
        start = None
        if batched:
            # only allocated when requested, so batched=False programs
            # stay byte-identical to the pre-batched generator
            priv = yield from t.malloc(PRIV * nthreads, align=64)
            env["priv"] = priv
            start = yield from t.barrier(nthreads, "start")
        locks = []
        for i in range(nlocks):
            lock = yield from t.mutex(f"l{i}")
            locks.append(lock)

        def worker(w):
            steps = plans[w.tid - 1]
            base = priv + (w.tid - 1) * PRIV
            if start is not None:
                yield from w.barrier_wait(start)
            for step in steps:
                if step[0] == "batch":
                    _, kind, count, off, compute, operand = step
                    addr = base + off
                    if kind == "load_run":
                        yield from w.load_run(addr, count, 8, width=8,
                                              site=ld)
                    elif kind == "store_run":
                        yield from w.store_run(addr, operand, count, 8,
                                               width=8, site=st)
                    elif kind == "rmw_seq":
                        addrs = tuple(base + (i % 48) * 8
                                      for i in range(count))
                        yield from w.rmw_seq(addrs, 8, operand,
                                             compute, load_site=ld,
                                             store_site=st)
                    else:
                        values = tuple((operand + i) & _WORD
                                       for i in range(count))
                        yield from w.store_seq(addr, values, 8,
                                               compute, site=st)
                    if compute:
                        yield from w.compute(compute)
                    continue
                _, line, operand, delay = step
                addr = buf + line * 64
                yield from w.lock(locks[line % nlocks])
                value = yield from w.load(addr, 8, site=ld)
                if line_kind[line] == "add":
                    value = (value + operand) & _WORD
                else:
                    value ^= operand
                yield from w.store(addr, value, 8, site=st)
                yield from w.unlock(locks[line % nlocks])
                if delay:
                    yield from w.compute(delay)

        tids = []
        for i in range(nthreads):
            tid = yield from t.spawn(worker, f"w{i}")
            tids.append(tid)
        for tid in tids:
            yield from t.join(tid)
        finals = []
        for i in range(nlines):
            value = yield from t.load(buf + i * 64, 8, site=ld)
            finals.append(value)
        env["finals"] = finals

    def validate(env_, engine):
        assert env["finals"] == expected, (
            f"confluent program diverged: {env['finals']} "
            f"!= {expected}")

    program = Program(name, binary, main, nthreads=nthreads)
    program.validate = validate
    program.env = env
    return program


def package_copy(dest, edit=True):
    """Copy the ``repro`` package to ``dest``; with ``edit``, one cost
    constant in ``sim/costs.py`` differs.  Returns the copy's path."""
    from repro.service.store import PACKAGE_DIR
    shutil.copytree(PACKAGE_DIR, dest,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if edit:
        costs = os.path.join(dest, "sim", "costs.py")
        with open(costs) as fh:
            text = fh.read()
        assert "mem_fill: int = 160" in text
        with open(costs, "w") as fh:
            fh.write(text.replace("mem_fill: int = 160",
                                  "mem_fill: int = 161"))
    return str(dest)
