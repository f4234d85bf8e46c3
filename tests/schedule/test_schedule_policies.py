"""Schedule policy layer: default identity, determinism, replay."""

import pytest

from helpers import (HAMMER_WORKERS, fs_counter_program, hammer_program,
                     make_program, random_program)
from repro.baselines import LaserRuntime
from repro.baselines.pthreads import PthreadsRuntime
from repro.core import TmiConfig, TmiRuntime
from repro.engine import Engine
from repro.errors import CycleBudgetError, SimulationError
from repro.isa import Binary
from repro.schedule import (POLICY_NAMES, DefaultPolicy, ReplayPolicy,
                            make_policy)


def run_random(seed, policy=None):
    """Run one random_program; returns (env, engine)."""
    env = {}
    program = random_program(seed, env=env)
    kwargs = {}
    if policy is not None:
        kwargs["policy"] = make_policy(policy)
    engine = Engine(program, PthreadsRuntime(), **kwargs)
    engine.run()
    return env, engine


def run_counter(policy=None, **kwargs):
    program = fs_counter_program(iters=300, nworkers=3)
    engine_kwargs = {}
    if policy is not None:
        engine_kwargs["policy"] = make_policy(policy)
    engine_kwargs.update(kwargs)
    engine = Engine(program, PthreadsRuntime(), **engine_kwargs)
    result = engine.run()
    return result, engine


class TestMakePolicy:
    def test_none_is_none(self):
        assert make_policy(None) is None

    def test_instance_passthrough(self):
        policy = DefaultPolicy()
        assert make_policy(policy) is policy

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown schedule policy"):
            make_policy({"policy": "no-such-policy"})

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_every_named_policy_builds(self, name):
        policy = make_policy({"policy": name, "seed": 3})
        assert policy.choose is not None

    def test_replay_spec(self):
        policy = make_policy({"policy": "replay", "decisions": [1, 0, 2]})
        assert isinstance(policy, ReplayPolicy)
        assert policy.decisions == [1, 0, 2]


#: Runtimes of the identity property: LASER never runs the lockstep
#: kernel, pthreads and TMI do, and TMI's ticks and T2P stop-the-world
#: land inside runs.
IDENTITY_SYSTEMS = ("pthreads", "laser", "tmi-protect")
#: Rounds of the hand-off program.
HANDOFF_ROUNDS = 6


def identity_runtime(system):
    if system == "laser":
        return LaserRuntime()
    if system == "tmi-protect":
        return TmiRuntime("protect", TmiConfig())
    return PthreadsRuntime()


def handoff_program():
    """Two workers and one mutex, per round: the holder locks it,
    computes while the waiter blocks on it, unlocks it and stores to
    one word; the waiter, woken by the unlock, stores to the next word
    of the same line.  Under pthreads the waiter's wake time is exactly
    the holder's clock at that next store: the waiter was queued
    first, so it stores first.  Returns the program and a function of
    the finished engine that reads the two words."""
    binary = Binary("handoff")
    st = binary.store_site("st", 8)
    box = []

    def main(t):
        block = yield from t.malloc(4096, align=64)
        box.append(block)
        lock = yield from t.mutex("m")
        start = yield from t.barrier(2, "round")

        def holder(w):
            for r in range(HANDOFF_ROUNDS):
                yield from w.barrier_wait(start)
                yield from w.lock(lock)
                yield from w.compute(5_000)
                yield from w.unlock(lock)
                yield from w.store(block, r + 1, 8, site=st)

        def waiter(w):
            for r in range(HANDOFF_ROUNDS):
                yield from w.barrier_wait(start)
                yield from w.compute(500)
                yield from w.lock(lock)
                yield from w.store(block + 8, r + 1, 8, site=st)
                yield from w.unlock(lock)

        first = yield from t.spawn(holder, "holder")
        second = yield from t.spawn(waiter, "waiter")
        yield from t.join(first)
        yield from t.join(second)

    def final(engine):
        return [engine.read_memory(box[0] + i * 8, 8) for i in range(2)]

    return make_program(main, "handoff", nthreads=2, binary=binary), final


def solo_tail_program():
    """Four workers increment falsely shared counters, one op at a
    time; then the first one goes on alone, storing to its counter
    across several detector intervals.  Alone, its ops run on, and a
    tick that falls due among them must still fire between two of
    them, so a repair it starts lands before the next one.  Returns
    the program and a function of the finished engine that reads the
    counters."""
    binary = Binary("solo")
    ld = binary.load_site("ld", 8)
    st = binary.store_site("st", 8)
    box = []

    def main(t):
        block = yield from t.malloc(4096, align=64)
        box.append(block)

        def worker(w):
            slot = block + (w.tid - 1) * 8
            for _ in range(150):
                value = yield from w.load(slot, 8, site=ld)
                yield from w.store(slot, value + 1, 8, site=st)
            if w.tid == 1:
                for i in range(2_000):
                    yield from w.store(slot, i, 8, site=st)
                    yield from w.compute(100)

        tids = []
        for i in range(4):
            tid = yield from t.spawn(worker, f"w{i}")
            tids.append(tid)
        for tid in tids:
            yield from t.join(tid)

    def final(engine):
        return [engine.read_memory(box[0] + i * 8, 8) for i in range(4)]

    return make_program(main, "solo", nthreads=4, binary=binary), final


def identity_case(case):
    """``(program, final)`` for one identity case: a fresh program and
    a function of its finished engine that reads its final state."""
    kind, arg = case
    if kind == "handoff":
        return handoff_program()
    if kind == "solo-tail":
        return solo_tail_program()
    if kind == "hammer":
        # the band pins' falsely shared hammer, odd workers volatile
        program, loaded, block = hammer_program(8, arg, True,
                                                volatile=True)
        return program, lambda engine: (loaded, [
            engine.read_memory(block[0] + i * 8, 8)
            for i in range(HAMMER_WORKERS)])
    env = {}
    program = random_program(arg, env=env, batched=kind == "batched")

    def final(engine):
        private = []
        if "priv" in env:
            # the three workers' 512-byte private blocks
            private = [engine.read_memory(env["priv"] + i * 8, 8)
                       for i in range(3 * 512 // 8)]
        return env["finals"], private
    return program, final


IDENTITY_CASES = ([("random", seed) for seed in (0, 3, 11)]
                  + [("batched", seed) for seed in (0, 3, 11)]
                  + [("hammer", kind) for kind in
                     ("load", "rmw_seq", "store", "store_seq")]
                  + [("handoff", None), ("solo-tail", None)])


class TestDefaultPolicyIdentity:
    """DefaultPolicy must reproduce the heap scheduler exactly.

    A run under the default policy takes neither run-on, the band nor
    the lockstep kernel, and the policy picks in heap order, so it is
    the reference for all three: the policy-less run must match it in
    every simulated fact.
    """

    @pytest.mark.parametrize(
        "case", IDENTITY_CASES,
        ids=[f"{kind}-{arg}" if arg is not None else kind
             for kind, arg in IDENTITY_CASES])
    @pytest.mark.parametrize("system", IDENTITY_SYSTEMS)
    def test_policy_less_run_matches_the_default_policy(self, system,
                                                        case):
        facts = []
        for policy in (None, {"policy": "default"}):
            program, final = identity_case(case)
            engine = Engine(program, identity_runtime(system),
                            policy=make_policy(policy))
            result = engine.run()
            assert result.validated, result.error
            facts.append((result.cycles, result.hitm_loads,
                          result.hitm_stores, result.data_ops,
                          result.sync_ops,
                          list(engine.machine.core_clock),
                          final(engine)))
        assert facts[0] == facts[1]

    def test_result_identical_to_fast_path(self):
        plain, _ = run_counter()
        policied, engine = run_counter(policy={"policy": "default"})
        assert policied.cycles == plain.cycles
        assert policied.hitm_loads == plain.hitm_loads
        assert policied.hitm_stores == plain.hitm_stores
        assert policied.data_ops == plain.data_ops
        assert policied.sync_ops == plain.sync_ops
        assert policied.validated and plain.validated
        # the default policy still records its (all-zero) decisions
        trace = engine.schedule_trace()
        assert trace["policy"] == "default"
        assert set(trace["decisions"]) <= {0}

    def test_plain_run_has_no_trace(self):
        _, engine = run_counter()
        assert engine.schedule_trace() is None


class TestDeterminismAndReplay:
    @pytest.mark.parametrize("name", ["random", "pct", "delay"])
    def test_same_seed_same_schedule(self, name):
        a, ea = run_counter(policy={"policy": name, "seed": 11})
        b, eb = run_counter(policy={"policy": name, "seed": 11})
        assert ea.schedule_decisions == eb.schedule_decisions
        assert a.cycles == b.cycles

    @pytest.mark.parametrize("name", ["random", "pct", "delay"])
    def test_replay_reproduces_cycles(self, name):
        original, engine = run_counter(policy={"policy": name, "seed": 5})
        decisions = list(engine.schedule_decisions)
        replayed, replay_engine = run_counter(
            policy={"policy": "replay", "decisions": decisions})
        assert replayed.cycles == original.cycles
        assert replay_engine.schedule_decisions == decisions

    def test_replay_on_random_program(self):
        env_a, engine = run_random(7, policy={"policy": "random",
                                              "seed": 2})
        env_b, _ = run_random(
            7, policy={"policy": "replay",
                       "decisions": list(engine.schedule_decisions)})
        assert env_a["finals"] == env_b["finals"]


class TestReplayTotality:
    def _fake(self, n):
        class T:
            def __init__(self, i):
                self.ready_time = i
                self.seq = i
        return [T(i) for i in range(n)]

    def test_exhausted_log_defaults_to_zero(self):
        policy = ReplayPolicy([1])
        policy.reset(None)
        assert policy.choose(self._fake(3)) == 1
        assert policy.choose(self._fake(3)) == 0

    def test_out_of_range_clamps(self):
        policy = ReplayPolicy([7])
        policy.reset(None)
        assert policy.choose(self._fake(2)) == 1


class TestPolicyValidation:
    def test_bad_index_raises(self):
        class Bad(DefaultPolicy):
            def choose(self, candidates):
                return len(candidates)

        with pytest.raises(SimulationError, match="chose index"):
            run_counter(policy=Bad())


class TestCycleBudget:
    def test_budget_error_carries_trace(self):
        with pytest.raises(CycleBudgetError) as info:
            run_counter(policy={"policy": "default"}, max_cycles=10_000)
        err = info.value
        assert err.budget == 10_000
        assert err.now > err.budget
        assert err.trace is not None
        assert err.trace["policy"] == "default"
        assert isinstance(err.trace["decisions"], list)

    def test_budget_error_lands_where_the_default_policy_raises_it(self):
        """A thread running on alone still meets the loop's budget
        test after every op: it raises at the same clock as under the
        default policy."""
        nows = []
        for policy in (None, {"policy": "default"}):
            program, _final = solo_tail_program()
            engine = Engine(program, PthreadsRuntime(), max_cycles=250_000,
                            policy=make_policy(policy))
            with pytest.raises(CycleBudgetError) as info:
                engine.run()
            nows.append(info.value.now)
        assert nows[0] == nows[1]

    def test_budget_error_without_policy(self):
        with pytest.raises(CycleBudgetError) as info:
            run_counter(max_cycles=10_000)
        assert info.value.trace is None
