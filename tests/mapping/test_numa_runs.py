"""End-to-end NUMA runs: byte-identity, determinism, vector declines.

The contract stack, bottom to top:

* ``sockets=1`` (or no NUMA kwargs at all) runs are byte-identical to
  the historical machine — cycles, HITM, metrics, final state.
* Multi-socket grids are deterministic across ``REPRO_JOBS`` worker
  counts, like every other grid in the repo.
* The vector core declines batches touching remote-homed lines (their
  fills carry NUMA latency the batch kernel doesn't model) and the
  declined run still matches the pure-serial interpreter bit for bit.
* The placement policies move the cross-socket HITM needle in the
  direction the mapping survey claims.
"""

import pytest

from repro.eval.parallel import run_cells
from repro.eval.runner import run_workload

SCALE = 0.3


def observable(outcome):
    result = outcome.result
    counters = {key: value
                for key, value in outcome.metrics["counters"].items()
                if not key.startswith("vector.")}
    return (outcome.status, result.cycles if result else None,
            result.hitm_total if result else None,
            outcome.final_state, counters)


def test_sockets_one_is_byte_identical_to_default():
    plain = run_workload("racy-counters", "pthreads", scale=0.5,
                         collect_state=True, collect_metrics=True)
    numa = run_workload("racy-counters", "pthreads", scale=0.5,
                        sockets=1, collect_state=True,
                        collect_metrics=True)
    assert observable(plain) == observable(numa)


def test_round_robin_placement_is_byte_identical_to_default():
    # compact, named explicitly, is the engine's round-robin default
    plain = run_workload("histogram", "pthreads", scale=0.2,
                         collect_state=True, collect_metrics=True)
    placed = run_workload("histogram", "pthreads", scale=0.2,
                          sockets=1, placement="compact",
                          collect_state=True, collect_metrics=True)
    assert observable(plain) == observable(placed)


def test_numa_cells_deterministic_across_jobs(monkeypatch):
    cells = [dict(name="clique-counters", system="pthreads",
                  scale=SCALE, sockets=2, placement=placement,
                  collect_metrics=True, collect_state=True)
             for placement in ("compact", "scatter", "sharing-aware")]
    monkeypatch.setenv("REPRO_JOBS", "1")
    serial = [observable(o) for o in run_cells(cells)]
    monkeypatch.setenv("REPRO_JOBS", "3")
    fanned = [observable(o) for o in run_cells(cells)]
    assert serial == fanned


def test_vector_declines_remote_lines_and_stays_exact():
    """On a 2-socket machine the batch kernel refuses remote-homed
    lines; the fallback serial path keeps results bit-identical."""
    on = run_workload("histogram", "pthreads", scale=0.1, sockets=2,
                      placement="scatter", vector=True,
                      collect_state=True, collect_metrics=True)
    off = run_workload("histogram", "pthreads", scale=0.1, sockets=2,
                       placement="scatter", vector=False,
                       collect_state=True, collect_metrics=True)
    assert observable(on) == observable(off)


def test_vector_decline_counter_fires():
    from repro.baselines.pthreads import PthreadsRuntime
    from repro.engine import Engine
    from repro.mapping import make_placement
    from repro.sim.machine import Machine
    from repro.sim.topology import Topology
    from repro.workloads import get

    workload = get("histogram", scale=0.1)
    program = workload.build("default")
    n_cores = program.nthreads + 2
    topology = Topology.fit(n_cores, 2)
    machine = Machine(n_cores=n_cores, topology=topology,
                      pages="interleave")
    engine = Engine(program, PthreadsRuntime(), machine=machine,
                    placement=make_placement("scatter", topology,
                                             n_cores),
                    vector=True)
    engine.run()
    # interleaved pages guarantee every core sees remote-homed lines
    assert engine._vector is not None
    assert engine._vector.numa_declines > 0


@pytest.mark.parametrize("placement,expect_low",
                         [("compact", False),
                          ("scatter", True),
                          ("sharing-aware", True)])
def test_placement_moves_cross_socket_hitm(placement, expect_low):
    """clique-counters' parity cliques straddle sockets under compact
    and land on-socket under scatter/sharing-aware."""
    out = run_workload("clique-counters", "pthreads", scale=SCALE,
                       sockets=2, placement=placement,
                       collect_metrics=True)
    assert out.ok
    cross = out.metrics["counters"].get("machine.hitm.cross_socket", 0)
    if expect_low:
        assert cross < 100, cross
    else:
        assert cross > 10_000, cross
