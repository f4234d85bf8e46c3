"""Property test: the vector executor is semantically invisible.

The seeded ``random_program`` family (extended with private stretches
over per-thread blocks — plain load and store loops and batched
``rmw_seq``/``store_seq`` ops, with the workers started together so
their sequence ops overlap in lockstep windows) must produce identical
final memory, cycle counts, HITM counts, op counts, and metrics
snapshots with the vector core forced on and forced off.
Hypothesis drives >= 50 generated programs; any divergence shrinks to
a minimal seed.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_program
from repro.baselines.pthreads import PthreadsRuntime
from repro.engine import Engine


def run_once(seed, vector, **kwargs):
    env = {}
    program = random_program(seed, env=env, batched=True, **kwargs)
    engine = Engine(program, PthreadsRuntime(), vector=vector)
    result = engine.run()
    assert result.validated, result.error
    snap = engine.metrics().snapshot()
    # the vector.* counters are the one intentional difference: they
    # count host-side batching, which the serial run never performs
    counters = {key: value for key, value in snap["counters"].items()
                if not key.startswith("vector.")}
    return {
        "finals": env["finals"],
        "cycles": result.cycles,
        "hitm": (result.hitm_loads, result.hitm_stores),
        "data_ops": result.data_ops,
        "sync_ops": result.sync_ops,
        "counters": counters,
        "gauges": snap["gauges"],
        "histograms": snap["histograms"],
    }


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16),
       nthreads=st.integers(2, 4),
       nlocks=st.integers(1, 3),
       ops=st.integers(10, 40))
def test_vector_on_off_identical(seed, nthreads, nlocks, ops):
    on = run_once(seed, True, nthreads=nthreads, nlocks=nlocks,
                  ops_per_thread=ops)
    off = run_once(seed, False, nthreads=nthreads, nlocks=nlocks,
                   ops_per_thread=ops)
    assert on == off


def test_batched_generator_exercises_the_kernels():
    """Guard against the property silently testing nothing: the
    batched generator must actually commit lockstep windows for at
    least one fixed seed."""
    env = {}
    program = random_program(0, env=env, batched=True)
    engine = Engine(program, PthreadsRuntime(), vector=True)
    engine.run()
    counters = engine.metrics().snapshot()["counters"]
    assert counters["vector.lockstep_batches"] > 0
    assert counters["vector.batched_ops"] > 0
