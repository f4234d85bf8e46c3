"""Differential test: optimized directory vs. the reference model.

``CoherenceDirectory`` carries an owner micro-cache and a pooled
outcome object; ``ReferenceDirectory`` is the straight-line
pre-optimization model.  Any trace must produce identical per-access
costs, HITM events, counters, and MESI state through both — the fast
path is an implementation detail, never a semantic one.  Two-socket
traces compare the socket-aware branches too: QPI hops, remote fills
under first-touch and interleaved page homes, and cross-socket HITMs.

A single-line access is one frame in ``Machine.mem_access``: the fast
hit, or the protocol step it runs through ``CoherenceDirectory._line``
itself.  So the same traces also run through a whole :class:`Machine`
against the reference directory plus a plain byte-array memory: costs
with a HITM listener's charge, loaded values, the HITMs the listener
saw, every counter, the final MESI state and the final memory.  Their
3-byte accesses have no width codec, so they pin the machine's
fallback to ``PhysicalMemory.read_int``/``write_int``.
"""

import random

import pytest

from repro.sim.cache import CoherenceDirectory
from repro.sim.cache_ref import ReferenceDirectory
from repro.sim.costs import LINE_SIZE, PAGE_4K, CostModel
from repro.sim.machine import PAGE_POLICIES, Machine
from repro.sim.topology import Topology

N_CORES = 8
BASE = 0x40_0000


def _machines(costs, pages):
    """A machine and the reference directory, both on one socket
    (``pages`` None) or on two sockets of four cores, each homing
    frames through its own machine's ``pages`` policy."""
    if pages is None:
        return (Machine(N_CORES, costs),
                ReferenceDirectory(costs, N_CORES))
    topology = Topology(sockets=2, cores_per_socket=N_CORES // 2)
    fast = Machine(N_CORES, costs, topology, pages)
    ref = Machine(N_CORES, costs, topology, pages)
    return fast, ReferenceDirectory(costs, N_CORES, topology,
                                    ref._home_of)


def _directories(costs, pages):
    """The optimized and the reference directory (see
    :func:`_machines`)."""
    if pages is None:
        return (CoherenceDirectory(costs, N_CORES),
                ReferenceDirectory(costs, N_CORES))
    machine, ref = _machines(costs, pages)
    return machine.directory, ref


def _assert_counters_match(fast, ref):
    assert fast.hitm_load_count == ref.hitm_load_count
    assert fast.hitm_store_count == ref.hitm_store_count
    assert fast.access_count == ref.access_count
    assert fast.contended_accesses == ref.contended_accesses
    assert fast.qpi_hops == ref.qpi_hops
    assert fast.remote_mem_fills == ref.remote_mem_fills
    assert fast.hitm_cross_socket_count == ref.hitm_cross_socket_count
    assert fast.check_swmr() == ref.check_swmr()
    assert fast._lines == ref._lines


def replay(steps, pages=None):
    """Run one trace through both directories, comparing as we go;
    returns the optimized directory."""
    costs = CostModel()
    fast, ref = _directories(costs, pages)
    for step in steps:
        if step[0] == "flush":
            _, pa, nbytes = step
            fast.flush_range(pa, nbytes)
            ref.flush_range(pa, nbytes)
            continue
        if step[0] == "invalidate":
            # the engine calls this on thread-to-process conversion;
            # the reference model has no cache to drop
            fast.invalidate_fast_path()
            continue
        _, core, pa, width, is_write, now = step
        got = fast.access(core, pa, width, is_write, now=now)
        # the fast outcome is pooled: snapshot before the next access
        got_cost, got_hitm, got_lines = (got.cost,
                                         list(got.hitm_remotes),
                                         got.lines)
        want = ref.access(core, pa, width, is_write, now=now)
        assert got_cost == want.cost, step
        assert got_hitm == want.hitm_remotes, step
        assert got_lines == want.lines, step
        assert fast.line_holders(pa) == ref.line_holders(pa), step

    _assert_counters_match(fast, ref)
    return fast


#: What the recording HITM listener charges per event.
LISTENER_CHARGE = 7
#: Bytes of the reference memory: every frame a trace touches, plus the
#: frame an access at the last frame's edge spills into.
MEMORY_BYTES = 6 * PAGE_4K


def replay_machine(steps, pages=None):
    """Run one trace through ``Machine.mem_access`` and through the
    reference directory plus a byte-array memory, comparing as we go;
    returns the machine, the number of fast hits (accesses that reached
    neither ``CoherenceDirectory.access`` nor its protocol step
    ``_line``) and the number of accesses that took the protocol.

    Each access runs at its step's ``now`` on the core's clock, the
    machine's HITM listener records every event it sees and charges
    :data:`LISTENER_CHARGE`, and step ``i`` stores a value wider than
    its width (the machine masks it)."""
    costs = CostModel()
    machine, ref = _machines(costs, pages)
    directory = machine.directory
    memory = bytearray(MEMORY_BYTES)
    seen = []

    def listener(event):
        seen.append(event)
        return LISTENER_CHARGE

    machine.add_hitm_listener(listener)
    calls = []

    def counted(method):
        def call(*args, **kwargs):
            calls.append(args)
            return method(*args, **kwargs)
        return call

    directory.access = counted(directory.access)
    directory._line = counted(directory._line)
    fast_hits = protocol = 0
    for index, step in enumerate(steps):
        if step[0] == "flush":
            _, pa, nbytes = step
            directory.flush_range(pa, nbytes)
            ref.flush_range(pa, nbytes)
            continue
        if step[0] == "invalidate":
            directory.invalidate_fast_path()
            continue
        _, core, pa, width, is_write, now = step
        value = (index * 0x9E3779B97F4A7C15) >> 3 if is_write else None
        machine.core_clock[core] = now
        before = len(seen)
        called = len(calls)
        cost, loaded = machine.mem_access(core, 100 + core, 0x4000, pa,
                                          pa, width, is_write, value)
        if len(calls) == called:
            fast_hits += 1
        else:
            protocol += 1
        want = ref.access(core, pa, width, is_write, now=now)
        remotes = list(want.hitm_remotes)
        assert cost == want.cost + LISTENER_CHARGE * len(remotes), step
        events = seen[before:]
        assert [event.remote_core for event in events] == remotes, step
        for event in events:
            assert (event.cycle, event.core, event.tid, event.pa,
                    event.width, event.is_store) == \
                (now, core, 100 + core, pa, width, is_write), step
        offset = pa - BASE
        if is_write:
            assert loaded is None, step
            memory[offset:offset + width] = (
                value & ((1 << (8 * width)) - 1)).to_bytes(width, "little")
        else:
            assert loaded == int.from_bytes(
                memory[offset:offset + width], "little"), step
        assert directory.line_holders(pa) == ref.line_holders(pa), step

    _assert_counters_match(directory, ref)
    assert machine.hitm_events == len(seen)
    assert len(seen) == ref.hitm_load_count + ref.hitm_store_count
    assert machine.physmem.read(BASE, MEMORY_BYTES) == bytes(memory)
    assert fast_hits + protocol == directory.access_count
    return machine, fast_hits, protocol


def random_trace(seed, length=3000, frames=1, widths=(1, 4, 8),
                 chunk_edge=False):
    """Mixed trace biased toward fast-path installs and evictions, over
    six lines in each of ``frames`` 4 KB frames; ``chunk_edge`` adds
    each frame's last line, whose straddling accesses cross into the
    next 4 KB chunk.  A 3-byte access sits two bytes past its offset,
    so at the line's last offset it straddles too."""
    rng = random.Random(seed)
    steps = []
    now = 0

    def pick_line():
        if chunk_edge:
            line = rng.choice((0, 1, 2, 3, 4, 5, 63)) * LINE_SIZE
        else:
            line = rng.randrange(0, 6) * LINE_SIZE
        if frames > 1:
            line += rng.randrange(frames) * PAGE_4K
        return line

    for _ in range(length):
        now += rng.randrange(0, 40)
        roll = rng.random()
        if roll < 0.02:
            line = pick_line()
            steps.append(("flush", BASE + line,
                          rng.choice((8, LINE_SIZE, 3 * LINE_SIZE))))
            continue
        if roll < 0.03:
            steps.append(("invalidate",))
            continue
        # a small line set so cores keep colliding, with runs of
        # same-core accesses so the micro-cache installs and hits
        core = rng.randrange(N_CORES) if roll < 0.5 else 0
        line = pick_line()
        offset = rng.choice((0, 8, 56, 60))        # 60 straddles lines
        width = rng.choice(widths)
        if width == 3:
            offset += 2
        is_write = rng.random() < 0.5
        steps.append(("access", core, BASE + line + offset, width,
                      is_write, now))
    return steps


@pytest.mark.parametrize("seed", range(8))
def test_random_traces_match_reference(seed):
    replay(random_trace(seed))


@pytest.mark.parametrize("pages", PAGE_POLICIES)
@pytest.mark.parametrize("seed", range(4))
def test_two_socket_traces_match_reference(seed, pages):
    """Cores 0-3 and 4-7 sit on different sockets, and the lines span
    four frames whose homes ``pages`` assigns: every socket-aware
    branch of the directory runs and matches the reference."""
    fast = replay(random_trace(seed, frames=4), pages=pages)
    assert fast.qpi_hops > 0
    assert fast.remote_mem_fills > 0
    assert fast.hitm_cross_socket_count > 0


@pytest.mark.parametrize("pages", (None,) + PAGE_POLICIES)
@pytest.mark.parametrize("seed", range(4))
def test_machine_traces_match_reference(seed, pages):
    """Loads and stores of widths 1, 2, 3, 4 and 8, single-line and
    straddling, some across a 4 KB chunk, with flushes and micro-cache
    drops, through ``Machine.mem_access`` on one socket (one frame)
    and on two (four frames)."""
    steps = random_trace(seed, frames=1 if pages is None else 4,
                         widths=(1, 2, 3, 4, 8), chunk_edge=True)
    accesses = [step for step in steps if step[0] == "access"]
    assert any((pa & 4095) + width > PAGE_4K
               for _, _, pa, width, _, _ in accesses), \
        "no access crosses a 4 KB chunk"
    ends = {((pa & 63) + 3 > LINE_SIZE, (pa & 4095) + 3 > PAGE_4K)
            for _, _, pa, width, _, _ in accesses if width == 3}
    assert ends == {(False, False), (True, False), (True, True)}, \
        "3-byte accesses must be single-line, straddling and cross chunks"
    machine, fast_hits, protocol = replay_machine(steps, pages)
    assert fast_hits > 0
    assert protocol > 0
    assert machine.directory.hitm_load_count > 0
    assert machine.directory.hitm_store_count > 0
    if pages is not None:
        assert machine.directory.hitm_cross_socket_count > 0


def owner_hammer():
    """The pattern the micro-cache exists for: one core re-writing its
    own modified line thousands of times, occasionally disturbed."""
    steps = []
    now = 0
    for i in range(5000):
        now += 5
        if i % 997 == 0:
            steps.append(("access", 1, BASE, 8, False, now))
        elif i % 499 == 0:
            steps.append(("flush", BASE, 64))
        else:
            steps.append(("access", 0, BASE + (i % 7) * 8, 8,
                          i % 3 != 0, now))
    return steps


def exclusive_to_modified():
    """A fast-path write to an E line must upgrade exactly like the
    reference (silent E->M, store-hit cost)."""
    steps = [("access", 0, BASE, 8, False, 0)]       # E fill
    steps += [("access", 0, BASE, 8, True, 100 * i)  # repeated stores
              for i in range(1, 50)]
    steps.append(("access", 2, BASE, 8, False, 6000))  # HITM read
    return steps


def flush_then_reaccess():
    """flush_range must drop micro-cache entries and contention
    history together; the next access re-fills from memory."""
    steps = []
    for i in range(20):
        steps.append(("access", 0, BASE, 8, True, i * 10))
    steps.append(("flush", BASE, 8))
    steps.append(("access", 0, BASE, 8, True, 300))
    steps.append(("access", 1, BASE, 8, False, 310))
    return steps


def test_owner_hammer_matches_reference():
    replay(owner_hammer())


def test_exclusive_to_modified_in_place():
    replay(exclusive_to_modified())


def test_flush_then_reaccess_matches():
    replay(flush_then_reaccess())


def cold_loads():
    """Fast-hit loads from a line whose 4 KB chunk nothing has written
    yet read zeros; then a store there, and a fast-hit load of it."""
    line = BASE + 2 * PAGE_4K
    steps = [("access", 0, line + 8, 8, False, 10 * i) for i in range(3)]
    steps.append(("access", 0, line + 8, 4, True, 40))
    steps.append(("access", 0, line + 8, 8, False, 50))
    return steps


SHAPED_TRACES = (owner_hammer, exclusive_to_modified, flush_then_reaccess,
                 cold_loads)


@pytest.mark.parametrize("trace", SHAPED_TRACES,
                         ids=[trace.__name__ for trace in SHAPED_TRACES])
def test_shaped_traces_match_reference_through_the_machine(trace):
    _machine, fast_hits, protocol = replay_machine(trace())
    assert fast_hits > 0
    assert protocol > 0
