"""Differential test: optimized directory vs. the reference model.

``CoherenceDirectory`` carries an owner micro-cache and a pooled
outcome object; ``ReferenceDirectory`` is the straight-line
pre-optimization model.  Any trace must produce identical per-access
costs, HITM events, counters, and MESI state through both — the fast
path is an implementation detail, never a semantic one.  Two-socket
traces compare the socket-aware branches too: QPI hops, remote fills
under first-touch and interleaved page homes, and cross-socket HITMs.
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


def _directories(costs, pages):
    """The optimized and the reference directory, both on one socket
    (``pages`` None) or on two sockets of four cores, each homing
    frames through its own machine's ``pages`` policy."""
    if pages is None:
        return (CoherenceDirectory(costs, N_CORES),
                ReferenceDirectory(costs, N_CORES))
    topology = Topology(sockets=2, cores_per_socket=N_CORES // 2)
    fast = Machine(N_CORES, costs, topology, pages)
    ref = Machine(N_CORES, costs, topology, pages)
    return fast.directory, ReferenceDirectory(costs, N_CORES, topology,
                                              ref._home_of)


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

    assert fast.hitm_load_count == ref.hitm_load_count
    assert fast.hitm_store_count == ref.hitm_store_count
    assert fast.access_count == ref.access_count
    assert fast.contended_accesses == ref.contended_accesses
    assert fast.qpi_hops == ref.qpi_hops
    assert fast.remote_mem_fills == ref.remote_mem_fills
    assert fast.hitm_cross_socket_count == ref.hitm_cross_socket_count
    assert fast.check_swmr() == ref.check_swmr()
    assert fast._lines == ref._lines
    return fast


def random_trace(seed, length=3000, frames=1):
    """Mixed trace biased toward fast-path installs and evictions, over
    six lines in each of ``frames`` 4 KB frames."""
    rng = random.Random(seed)
    steps = []
    now = 0

    def pick_line():
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
        width = rng.choice((1, 4, 8))
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


def test_owner_hammer_matches_reference():
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
    replay(steps)


def test_exclusive_to_modified_in_place():
    """A fast-path write to an E line must upgrade exactly like the
    reference (silent E->M, store-hit cost)."""
    steps = [("access", 0, BASE, 8, False, 0)]       # E fill
    steps += [("access", 0, BASE, 8, True, 100 * i)  # repeated stores
              for i in range(1, 50)]
    steps.append(("access", 2, BASE, 8, False, 6000))  # HITM read
    replay(steps)


def test_flush_then_reaccess_matches():
    """flush_range must drop micro-cache entries and contention
    history together; the next access re-fills from memory."""
    steps = []
    for i in range(20):
        steps.append(("access", 0, BASE, 8, True, i * 10))
    steps.append(("flush", BASE, 8))
    steps.append(("access", 0, BASE, 8, True, 300))
    steps.append(("access", 1, BASE, 8, False, 310))
    replay(steps)
