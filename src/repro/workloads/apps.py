"""leveldb 1.20: the paper's real-world workload.

Traits from the paper (sections 4.2-4.3):

- a writer queue (``std::deque`` guarded by the db mutex) with heavy
  synchronization — leveldb shows ~10x more HITM events from *true*
  sharing than false sharing, and the minor false sharing TMI finds in
  the deque is not worth repairing;
- atomic pointers implemented with inline assembly (8 instances);
- the injected bug (``leveldb-fs`` variant): per-thread operation
  counters packed into a single cache line — "emblematic of many of
  the false sharing bugs we have seen in other programs."  TMI repairs
  it for a 3.8x speedup, 88% of the manual fix.
"""

from repro.workloads.base import (FIXED, GB, MB, Workload, spawn_join,
                                  worker_index)

#: Variant name for the injected false sharing bug.
FSBUG = "fsbug"


class LevelDB(Workload):
    """Key-value store: batched writer queue + block-cache reads."""

    name = "leveldb"
    suite = "app"
    footprint = 300 * MB
    heap_bytes = 1 * GB
    uses_atomics = True
    uses_asm = True
    has_true_sharing = True
    sync_rate = "high"
    ops = 4_000

    def __init__(self, inject_bug=False, **kwargs):
        super().__init__(**kwargs)
        self.inject_bug = inject_bug
        if inject_bug:
            self.name = "leveldb-fs"
            self.has_false_sharing = True

    def body(self, binary, env, variant):
        ld_blk = binary.load_site("read_block", 8)
        st_mem = binary.store_site("memtable_put", 8)
        ld_q = binary.load_site("deque_front", 8)
        st_q = binary.store_site("deque_push", 8)
        ld_cnt = binary.load_site("load_opcount", 8)
        st_cnt = binary.store_site("incr_opcount", 8)
        a_ver = binary.atomic_site("version_ptr", 8)
        nworkers = self.nthreads
        ops = self.iters(self.ops)
        injected = self.inject_bug and variant != FIXED
        counter_stride = 8 if injected else 64

        def main(t):
            sst = yield from t.malloc(256 * MB, align=4096)
            memtable = yield from t.malloc(8 * MB, align=4096)
            deque = yield from t.malloc(4096, align=64)
            version = yield from t.malloc(64, align=64)
            counters = yield from t.malloc(
                counter_stride * nworkers + 64, align=64)
            db_lock = yield from t.mutex("dbmu")
            env["counters"] = counters
            env["stride"] = counter_stride

            def worker(w):
                wi = worker_index(w)
                my_count = counters + wi * counter_stride
                for i in range(ops):
                    h = (i * 1103515245 + wi * 12345) & 0x7FFFFFFF
                    if h % 64 == 0:
                        # write path: batched group commit through
                        # the db mutex (writers batch in leveldb)
                        yield from w.lock(db_lock)
                        slot = deque + (h % 32) * 64
                        value = yield from w.load(slot, 8, site=ld_q)
                        yield from w.store(slot, value + 1, 8, site=st_q)
                        yield from w.store(
                            memtable + (h % 1024) * 512, h, 8,
                            site=st_mem)
                        yield from w.unlock(db_lock)
                        # publish the new version (asm atomic pointer)
                        yield from w.asm_begin()
                        yield from w.atomic_store(version, h, 8,
                                                  site=a_ver)
                        yield from w.asm_end()
                    else:
                        # read path: readers revalidate the cached
                        # version pointer occasionally (asm atomics)
                        if i % 32 == 0:
                            yield from w.asm_begin()
                            yield from w.atomic_load(version, 8,
                                                     site=a_ver)
                            yield from w.asm_end()
                        yield from w.bulk_touch(
                            sst + (h % 96) * (16 * 1024), 8 * 1024,
                            site=ld_blk)
                        yield from w.compute(300)
                    # per-thread op statistics (the injected bug packs
                    # these into one line); leveldb bumps several fields
                    # per operation: 3 x (load, store value + 1)
                    yield from w.rmw_seq((my_count,) * 3, 8, 1, 0,
                                         load_site=ld_cnt,
                                         store_site=st_cnt)

            yield from spawn_join(t, nworkers, worker)
            values = yield from t.load_run(counters, nworkers,
                                           counter_stride, 8, site=ld_cnt)
            env["total_ops"] = sum(values)

        return main

    def validate(self, env, engine):
        expected = 3 * self.iters(self.ops) * self.nthreads
        assert env.get("total_ops") == expected, (
            f"leveldb op counters corrupted: {env.get('total_ops')} "
            f"!= {expected}")

    #: Per-thread op counters take a fixed number of increments each.
    result_env_keys = ("total_ops",)

    def final_state(self, env, engine):
        # the memtable/deque contents are last-writer-wins and thus
        # schedule-dependent; only the per-thread counters are part of
        # the schedule-independent state
        state = super().final_state(env, engine)
        state["op_counters"] = self.read_words(
            engine, env["counters"], self.nthreads, env["stride"])
        return state
