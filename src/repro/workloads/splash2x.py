"""Splash2x workloads (Woo et al., ISCA'95).

Traits the paper leans on: lu-ncb's false sharing in the daxpy input
array that an allocator change alone repairs (section 4.3), ocean-ncp's
27 GB native footprint (far beyond Sheriff's reach, and the largest
page-fault load in Figure 10), the suite's barrier-heavy phase
structure, and cholesky's volatile-flag synchronization — the Figure 12
correctness case, which hangs under a PTSB without code-centric
consistency and is excluded from the timing suites (as in the paper).
"""

from repro.workloads.base import (FIXED, GB, MB, Workload, spawn_join,
                                  worker_index)


class _BarrierPhases(Workload):
    """Shared scaffold for the barrier-phased scientific kernels.

    Subclasses tune footprint, phase count, per-phase compute, and
    streamed bytes; each adds its own twist on top.
    """

    suite = "splash2x"
    phases = 12
    compute_per_phase = 30_000
    #: Per-worker working-set window streamed each phase.  Inputs are
    #: globally scaled ~1000x down from native, so the bytes a run
    #: actually faults in scale the same way; the declared footprint
    #: (Figure 8) stays at native size.
    touch_window = 128 * 1024

    def body(self, binary, env, variant):
        ld = binary.load_site("read_grid", 8)
        st = binary.store_site("write_grid", 8)
        nworkers = self.nthreads
        phases = self.iters(self.phases)
        window = self.touch_window

        def main(t):
            data = yield from t.malloc(
                min(self.footprint, self.heap_bytes // 2), align=4096)
            bar = yield from t.barrier(nworkers, "phase")

            def worker(w):
                wi = worker_index(w)
                mine = data + wi * window
                for p in range(phases):
                    yield from w.bulk_touch(mine, window, site=ld)
                    yield from w.compute(self.compute_per_phase)
                    yield from w.bulk_touch(mine, window // 4,
                                            is_write=True, site=st)
                    yield from w.barrier_wait(bar)

            yield from spawn_join(t, nworkers, worker)

        return main


class Barnes(_BarrierPhases):
    """N-body tree: tree-build locks on top of barrier phases."""

    name = "barnes"
    footprint = 300 * MB
    heap_bytes = 1 * GB
    sync_rate = "medium"
    phases = 10

    def body(self, binary, env, variant):
        base_main = super().body(binary, env, variant)
        ld = binary.load_site("read_body", 8)
        st = binary.store_site("insert_body", 8)
        nworkers = self.nthreads
        inserts = self.iters(120)

        def main(t):
            tree_lock = yield from t.mutex("tree")
            tree = yield from t.malloc(1 * MB, align=64)

            def builder(w):
                wi = worker_index(w)
                for i in range(inserts):
                    yield from w.compute(2_000)
                    yield from w.lock(tree_lock)
                    addr = tree + ((i * 37 + wi) % 4096) * 64
                    value = yield from w.load(addr, 8, site=ld)
                    yield from w.store(addr, value + 1, 8, site=st)
                    yield from w.unlock(tree_lock)

            yield from spawn_join(t, nworkers, builder)
            yield from base_main(t)

        return main


class FFT(_BarrierPhases):
    name = "fft"
    footprint = 800 * MB
    heap_bytes = 2 * GB
    phases = 8
    touch_window = 256 * 1024
    compute_per_phase = 60_000


class FMM(_BarrierPhases):
    name = "fmm"
    footprint = 400 * MB
    heap_bytes = 1 * GB
    phases = 10
    touch_window = 256 * 1024
    compute_per_phase = 45_000


class LuCb(_BarrierPhases):
    """Contiguous-block LU: block-private writes, no false sharing."""

    name = "lu-cb"
    footprint = 512 * MB
    heap_bytes = 1 * GB
    phases = 14
    touch_window = 128 * 1024
    compute_per_phase = 35_000


class LuNcb(Workload):
    """Non-contiguous-block LU.

    The daxpy input array is carved so consecutive threads' partitions
    straddle cache lines (the baseline allocator hands out 16-byte
    alignment).  The paper notes this bug is repaired by the allocator
    change alone — TMI's shared-region allocator rounds large blocks to
    64 bytes — so ``tmi-alloc`` already fixes it."""

    name = "lu-ncb"
    suite = "splash2x"
    footprint = 512 * MB
    heap_bytes = 1 * GB
    has_false_sharing = True
    steps = 110

    def body(self, binary, env, variant):
        ld = binary.load_site("daxpy_load", 8)
        st = binary.store_site("daxpy_store", 8)
        nworkers = self.nthreads
        steps = self.iters(self.steps)
        # per-thread partition of one 64-byte block; whether partitions
        # straddle lines is decided purely by the *base* alignment
        part = 64
        from repro.workloads.base import FIXED as _FIXED
        explicit_align = 64 if variant == _FIXED else 0

        def main(t):
            # the allocator decides the base alignment: the baseline
            # Lockless config returns 16-mod-64 addresses for large
            # blocks (partitions straddle lines); TMI's shared allocator
            # returns line-aligned ones, repairing the bug by itself.
            # The manual fix requests the alignment explicitly.
            daxpy = yield from t.malloc(256 * 1024, align=explicit_align)
            matrix = yield from t.malloc(48 * MB, align=4096)
            bar = yield from t.barrier(nworkers, "step")
            env["daxpy_base"] = daxpy

            def worker(w):
                wi = worker_index(w)
                base = daxpy + wi * part
                # the daxpy body cycles over the partition's 8 words:
                # 120 x (load, store value + s, compute 45) per step
                addrs = tuple(base + (i % 8) * 8 for i in range(120))
                for s in range(steps):
                    yield from w.bulk_touch(
                        matrix + wi * (192 * 1024), 192 * 1024, site=ld)
                    yield from w.rmw_seq(addrs, 8, s, 45, load_site=ld,
                                         store_site=st)
                    yield from w.barrier_wait(bar)

            yield from spawn_join(t, nworkers, worker)

        return main

    def final_state(self, env, engine):
        # each worker owns one 64-byte daxpy partition (8 words) and
        # accumulates a deterministic series into it
        return {"daxpy": [
            self.read_words(engine, env["daxpy_base"] + wi * 64, 8, 8)
            for wi in range(self.nthreads)]}


class OceanCp(_BarrierPhases):
    name = "ocean-cp"
    footprint = 1536 * MB
    heap_bytes = 3 * GB
    phases = 8
    touch_window = 320 * 1024
    compute_per_phase = 40_000


class OceanNcp(_BarrierPhases):
    """27 GB native footprint: the heaviest page-fault load (Fig. 10)."""

    name = "ocean-ncp"
    footprint = 27 * GB
    heap_bytes = 28 * GB
    phases = 6
    touch_window = 384 * 1024
    compute_per_phase = 50_000


class Radiosity(Workload):
    """Hierarchical radiosity: a lock-protected task queue."""

    name = "radiosity"
    suite = "splash2x"
    footprint = 300 * MB
    heap_bytes = 1 * GB
    sync_rate = "high"
    tasks = 420

    def body(self, binary, env, variant):
        ld = binary.load_site("read_patch", 8)
        st = binary.store_site("write_energy", 8)
        nworkers = self.nthreads
        tasks = self.iters(self.tasks)

        def main(t):
            patches = yield from t.malloc(128 * MB, align=4096)
            queue_lock = yield from t.mutex("taskq")

            def worker(w):
                wi = worker_index(w)
                for i in range(tasks):
                    yield from w.lock(queue_lock)
                    yield from w.unlock(queue_lock)
                    yield from w.bulk_touch(
                        patches + ((i * 7 + wi) % 16) * (64 * 1024),
                        64 * 1024, site=ld)
                    yield from w.compute(7_000)
                    yield from w.bulk_touch(
                        patches + (16 + wi) * (64 * 1024), 64 * 1024,
                        is_write=True, site=st)

            yield from spawn_join(t, nworkers, worker)

        return main


class Radix(_BarrierPhases):
    name = "radix"
    footprint = 2 * GB
    heap_bytes = 4 * GB
    phases = 7
    touch_window = 256 * 1024
    compute_per_phase = 25_000


class Raytrace(Workload):
    """Read-mostly scene + a work-queue lock."""

    name = "raytrace"
    suite = "splash2x"
    footprint = 300 * MB
    heap_bytes = 1 * GB
    sync_rate = "medium"
    tiles = 260

    def body(self, binary, env, variant):
        ld = binary.load_site("read_scene", 8)
        st = binary.store_site("write_pixel", 8)
        nworkers = self.nthreads
        tiles = self.iters(self.tiles)

        def main(t):
            scene = yield from t.malloc(192 * MB, align=4096)
            frame = yield from t.malloc(32 * MB, align=4096)
            work_lock = yield from t.mutex("work")

            def worker(w):
                wi = worker_index(w)
                for i in range(tiles):
                    yield from w.lock(work_lock)
                    yield from w.unlock(work_lock)
                    yield from w.bulk_touch(
                        scene + ((i * 11 + wi) % 12) * (128 * 1024),
                        128 * 1024, site=ld)
                    yield from w.compute(12_000)
                    yield from w.bulk_touch(
                        frame + wi * (64 * 1024), 64 * 1024,
                        is_write=True, site=st)

            yield from spawn_join(t, nworkers, worker)

        return main


class Volrend(_BarrierPhases):
    name = "volrend"
    footprint = 160 * MB
    heap_bytes = 1 * GB
    phases = 16
    touch_window = 64 * 1024
    compute_per_phase = 22_000


class WaterNsquare(_BarrierPhases):
    name = "water-nsquare"
    footprint = 480 * MB
    heap_bytes = 1 * GB
    phases = 10
    touch_window = 64 * 1024
    compute_per_phase = 38_000


class WaterSpatial(Workload):
    """Spatial-decomposition water: a lock per spatial cell (like
    fluidanimate, the pshared shadow cost shows in Figure 8)."""

    name = "water-spatial"
    suite = "splash2x"
    footprint = 480 * MB
    heap_bytes = 1 * GB
    sync_rate = "high"
    ncells = 800
    steps = 16

    def body(self, binary, env, variant):
        ld = binary.load_site("read_mol", 8)
        st = binary.store_site("write_mol", 8)
        nworkers = self.nthreads
        # native inputs have orders of magnitude more cells; the lock
        # count scales with the input so one-time init costs stay
        # proportionate
        ncells = max(16 * self.nthreads, self.iters(self.ncells))
        steps = max(1, self.iters(self.steps))

        def main(t):
            cells = yield from t.malloc(64 * MB, align=4096)
            locks = []
            for c in range(ncells):
                lock = yield from t.mutex(f"cell{c}")
                locks.append(lock)
            bar = yield from t.barrier(nworkers, "step")

            def worker(w):
                wi = worker_index(w)
                span = ncells // nworkers
                for s in range(steps):
                    for c in range(wi * span, (wi + 1) * span, 3):
                        yield from w.lock(locks[c])
                        addr = cells + c * 4096
                        value = yield from w.load(addr, 8, site=ld)
                        yield from w.store(addr, value + 1, 8, site=st)
                        yield from w.unlock(locks[c])
                        yield from w.compute(900)
                    yield from w.barrier_wait(bar)

            yield from spawn_join(t, nworkers, worker)

        return main


class Cholesky(Workload):
    """Figure 12: flag-based synchronization with C ``volatile``.

    T0 spins while ``flag`` is true; T1 clears it, then both meet at a
    barrier.  Under a PTSB without code-centric consistency T0 never
    sees the update in its private page and the program hangs.  The
    paper excludes cholesky from timing (400 ms, unscalable input); we
    keep it for the correctness study only."""

    name = "cholesky"
    suite = "splash2x"
    footprint = 30 * MB
    uses_volatile_flags = True
    max_spins = 4_000

    def body(self, binary, env, variant):
        ld_f = binary.load_site("flag_read", 4)
        st_f = binary.store_site("flag_write", 4)
        st_d = binary.store_site("factor_write", 8)
        nworkers = 2
        max_spins = self.max_spins

        def main(t):
            flags = yield from t.malloc(4096, align=64)
            flag = flags + 128
            yield from t.store(flag, 1, 4, site=st_f)
            bar = yield from t.barrier(nworkers, "sync")
            env["flag"] = flag

            def waiter(w):
                # dirty the flag's page first so a whole-memory PTSB
                # gives this thread a stale private copy (mf.C:135)
                yield from w.store(flags + 8, w.tid, 8, site=st_d)
                yield from w.spin_while_equal(flag, 1, 4, site=ld_f,
                                              max_spins=max_spins)
                yield from w.barrier_wait(bar)

            def clearer(w):
                yield from w.compute(40_000)       # do a factor step
                yield from w.volatile_store(flag, 0, 4, site=st_f)
                yield from w.barrier_wait(bar)

            tid0 = yield from t.spawn(waiter, "waiter")
            tid1 = yield from t.spawn(clearer, "clearer")
            yield from t.join(tid0)
            yield from t.join(tid1)
            env["completed"] = True

        return main

    def build(self, variant=FIXED):
        program = super().build(variant)
        program.nthreads = 2
        return program


SPLASH2X = (Barnes, FFT, FMM, LuCb, LuNcb, OceanCp, OceanNcp, Radiosity,
            Radix, Raytrace, Volrend, WaterNsquare, WaterSpatial)
