"""Differential tests for the batch cache-state transition kernel.

``apply_fast_mixed`` collapses ``k`` fast-hit accesses into one
in-place directory update.  The oracle is the unoptimized per-access
path: replay the identical access stream through a second
``CoherenceDirectory`` (and the ``ReferenceDirectory`` for the serial
side) and demand byte-identical directory state.
"""

import random

from repro.sim.cache import CoherenceDirectory
from repro.sim.cache_batch import apply_fast_mixed
from repro.sim.cache_ref import ReferenceDirectory
from repro.sim.costs import LINE_SIZE, CostModel

N_CORES = 4
BASE = 0x40_0000


def _fresh_pair(lines, core=0):
    """Two directories warmed identically: ``core`` owns ``lines``
    through the fast path (two accesses each install the micro-cache
    entry)."""
    costs = CostModel()
    a = CoherenceDirectory(costs, N_CORES)
    b = CoherenceDirectory(costs, N_CORES)
    for directory in (a, b):
        now = 0
        for line in lines:
            directory.access(core, line, 8, True, now=now)
            directory.access(core, line, 8, True, now=now + 1)
            now += 2
    for line in lines:
        assert a._fast[line][0] == core
    return a, b, costs


def _state(directory):
    return (directory._lines, directory._recent, directory.access_count,
            directory.hitm_load_count, directory.hitm_store_count,
            directory.contended_accesses)


def test_apply_fast_mixed_matches_serial_rmw_stream():
    """The RmwSeq shape: interleaved load/store pairs over owned
    lines, random order, loads sometimes last on a line."""
    rng = random.Random(7)
    lines = [BASE + i * LINE_SIZE for i in range(4)]
    serial, batched, costs = _fresh_pair(lines)
    now = 100
    finals = {}                      # line -> [last_any, last_write]
    total = 0
    for _ in range(80):
        line = rng.choice(lines)
        is_write = rng.random() < 0.5
        hit = costs.store_hit if is_write else costs.load_hit
        out = serial.access(0, line, 8, is_write, now=now)
        assert out.cost == hit, "stream must stay fast-path"
        entry = finals.setdefault(line, [None, None])
        entry[0] = now
        if is_write:
            entry[1] = now
        total += 1
        now += hit
    apply_fast_mixed(batched, 0, finals, total)
    assert _state(serial) == _state(batched)
    assert serial._fast == batched._fast


def test_apply_fast_mixed_upgrades_exclusive_once():
    """A read-warmed (EXCLUSIVE) line must upgrade to MODIFIED on the
    first batched write, exactly like the serial E->M transition, and
    match the reference model afterwards."""
    costs = CostModel()
    serial = CoherenceDirectory(costs, N_CORES)
    batched = CoherenceDirectory(costs, N_CORES)
    ref = ReferenceDirectory(costs, N_CORES)
    for directory in (serial, batched, ref):
        directory.access(0, BASE, 8, False, now=0)    # E fill
        directory.access(0, BASE, 8, False, now=1)    # fast install
    assert batched._fast[BASE][0] == 0

    serial.access(0, BASE, 8, True, now=10)
    serial.access(0, BASE, 8, False, now=12)
    ref.access(0, BASE, 8, True, now=10)
    ref.access(0, BASE, 8, False, now=12)
    apply_fast_mixed(batched, 0, {BASE: [12, 10]}, 2)

    assert serial._lines == batched._lines == ref._lines
    assert serial._recent == batched._recent
    assert serial.access_count == batched.access_count \
        == ref.access_count
    assert batched.line_holders(BASE) == ref.line_holders(BASE)

    # a later remote read must see the same HITM either way
    got = serial.access(2, BASE, 8, False, now=100)
    want = batched.access(2, BASE, 8, False, now=100)
    assert (got.cost, list(got.hitm_remotes)) \
        == (want.cost, list(want.hitm_remotes))
