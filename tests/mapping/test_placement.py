"""Placement policies: the default formula, socket packing, grouping.

The compact policy, the engine's default, must be *bit-for-bit* the
round-robin formula ``tid % (n_cores - 1)`` — the sockets=1
byte-identity story depends on it — and every policy must be a pure
function of (topology, n_cores, groups): same inputs, same core for
every tid, regardless of construction order or process.
"""

import pytest

from repro.errors import SimulationError
from repro.mapping import (PLACEMENT_NAMES, affinity_groups,
                           make_placement)
from repro.mapping.placement import SharingAwarePlacement
from repro.sim.topology import Topology

TOPO2 = Topology(2, 5)


def test_round_robin_matches_legacy_formula():
    for n_cores in (2, 5, 8, 10):
        topo = Topology.fit(n_cores, 1)
        pl = make_placement("compact", topo, n_cores)
        for tid in range(32):
            assert pl.core_for(tid) == tid % (n_cores - 1)


def test_compact_equals_round_robin_on_dense_ids():
    # two sockets: dense core ids make "pack socket 0 first" the
    # round-robin formula too
    compact = make_placement("compact", TOPO2, 10)
    assert [compact.core_for(t) for t in range(20)] == \
        [t % 9 for t in range(20)]


def test_engine_defaults_to_compact_placement():
    from repro.baselines.pthreads import PthreadsRuntime
    from repro.engine import Engine
    from repro.mapping import CompactPlacement
    from repro.workloads import get
    program = get("histogram", scale=0.05).build("default")
    engine = Engine(program, PthreadsRuntime())
    assert isinstance(engine.placement, CompactPlacement)
    assert engine.placement.n_cores == engine.machine.n_cores


def test_scatter_alternates_sockets():
    pl = make_placement("scatter", TOPO2, 10)
    sockets = [TOPO2.socket_of(pl.core_for(t)) for t in range(8)]
    assert sockets == [0, 1, 0, 1, 0, 1, 0, 1]
    # never the service core
    assert all(pl.core_for(t) != 9 for t in range(40))


def test_sharing_aware_packs_groups_on_one_socket():
    groups = [[0, 2, 4, 6], [1, 3, 5, 7]]
    pl = SharingAwarePlacement(TOPO2, 10, groups=groups)
    for group in groups:
        placed = {TOPO2.socket_of(pl.core_for(t)) for t in group}
        assert len(placed) == 1, (group, placed)
    # the two groups land on different sockets
    assert (TOPO2.socket_of(pl.core_for(0))
            != TOPO2.socket_of(pl.core_for(1)))


def test_sharing_aware_avoids_fallback_front_cores():
    """Groups fill sockets from the top so the scatter fallback (main
    thread and friends) keeps the low cores to itself."""
    pl = SharingAwarePlacement(TOPO2, 10, groups=[[0, 1, 2]])
    group_cores = {pl.core_for(t) for t in (0, 1, 2)}
    fallback_first = pl.core_for(3)    # unplaced: scatter order
    assert fallback_first not in group_cores


def test_sharing_aware_no_groups_is_scatter():
    bare = SharingAwarePlacement(TOPO2, 10, groups=None)
    scatter = make_placement("scatter", TOPO2, 10)
    assert [bare.core_for(t) for t in range(20)] == \
        [scatter.core_for(t) for t in range(20)]


def test_placements_deterministic_and_in_range():
    for name in PLACEMENT_NAMES:
        groups = [[1, 2], [3, 4]] if name == "sharing-aware" else None
        a = make_placement(name, TOPO2, 10, groups=groups)
        b = make_placement(name, TOPO2, 10, groups=groups)
        cores = [a.core_for(t) for t in range(64)]
        assert cores == [b.core_for(t) for t in range(64)]
        assert all(0 <= c < 9 for c in cores)   # service core excluded


def test_make_placement_validation():
    with pytest.raises(SimulationError):
        make_placement("hilbert-curve", TOPO2, 10)
    with pytest.raises(SimulationError):
        make_placement("compact", TOPO2, 1)    # no application cores


# -------------------------------------------------- affinity grouping

def line(readers=(), writers=()):
    masks = {}
    for tid in readers:
        masks.setdefault(tid, [0, 0])[0] |= 1
    for tid in writers:
        masks.setdefault(tid, [0, 0])[1] |= 1
    return masks


def test_affinity_groups_union_find():
    lines = {
        0x1000: line(writers=(0, 1)),          # couples 0,1
        0x1040: line(readers=(1,), writers=(2,)),   # couples 1,2
        0x2000: line(writers=(4, 5)),          # couples 4,5
        0x3000: line(readers=(6, 7)),          # read-only: ignored
        0x4000: line(writers=(3,)),            # single thread: ignored
    }
    assert affinity_groups(lines, 8) == [[0, 1, 2], [4, 5]]


def test_affinity_groups_ignores_out_of_range_tids():
    lines = {0x1000: line(writers=(0, 99))}
    assert affinity_groups(lines, 8) == []


def test_affinity_groups_order_independent():
    a = {0x1000: line(writers=(0, 1)), 0x2000: line(writers=(2, 3))}
    b = dict(reversed(list(a.items())))
    assert affinity_groups(a, 8) == affinity_groups(b, 8)
