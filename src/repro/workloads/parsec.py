"""PARSEC 3.0 workloads (Bienia '11).

Traits the paper leans on: canneal's atomic pointer swaps through
inline assembly (the Figure 11 correctness case — Sheriff corrupts its
result), dedup's openssl assembly and queue-heavy pipeline,
fluidanimate's ocean of fine-grained locks (TMI's pshared redirection
cost shows in Figure 8), and the suite's native-input footprints that
Sheriff's whole-heap protection cannot handle.
"""

from repro.workloads.base import GB, MB, Workload, spawn_join, worker_index


class Blackscholes(Workload):
    """Embarrassingly parallel option pricing: private chunks only."""

    name = "blackscholes"
    suite = "parsec"
    footprint = 600 * MB
    heap_bytes = 1 * GB
    options = 90

    def body(self, binary, env, variant):
        ld = binary.load_site("read_option", 8)
        st = binary.store_site("write_price", 8)
        nworkers = self.nthreads
        options = self.iters(self.options)

        def main(t):
            data = yield from t.malloc(512 * MB, align=4096)
            prices = yield from t.malloc(64 * MB, align=4096)

            def worker(w):
                wi = worker_index(w)
                window = 192 * 1024
                mine = data + wi * window
                out = prices + wi * (64 * 1024)
                for i in range(options):
                    yield from w.bulk_touch(mine, window, site=ld)
                    yield from w.compute(40_000)      # CNDF evaluation
                    yield from w.bulk_touch(out, 64 * 1024,
                                            is_write=True, site=st)

            yield from spawn_join(t, nworkers, worker)

        return main


class Bodytrack(Workload):
    """Particle filter: barrier-phased rounds with a shared model."""

    name = "bodytrack"
    suite = "parsec"
    footprint = 400 * MB
    heap_bytes = 1 * GB
    sync_rate = "medium"
    frames = 24

    def body(self, binary, env, variant):
        ld = binary.load_site("read_frame", 8)
        st = binary.store_site("write_particle", 8)
        nworkers = self.nthreads
        frames = self.iters(self.frames)

        def main(t):
            video = yield from t.malloc(256 * MB, align=4096)
            particles = yield from t.malloc(8 * MB, align=4096)
            bar = yield from t.barrier(nworkers, "frame")

            def worker(w):
                wi = worker_index(w)
                window = 256 * 1024
                for f in range(frames):
                    yield from w.bulk_touch(
                        video + wi * window, window, site=ld)
                    yield from w.compute(60_000)
                    yield from w.bulk_touch(
                        particles + wi * (64 * 1024), 64 * 1024,
                        is_write=True, site=st)
                    yield from w.barrier_wait(bar)

            yield from spawn_join(t, nworkers, worker)

        return main


class Canneal(Workload):
    """Simulated annealing with lock-free element swaps.

    The swaps use atomic exchanges implemented with inline assembly
    (the paper found 6 instances).  Under a PTSB without code-centric
    consistency the swaps don't synchronize through shared memory and
    elements are lost or duplicated (Figure 11) — ``validate`` checks
    the grid is still a permutation."""

    name = "canneal"
    suite = "parsec"
    footprint = 200 * MB
    heap_bytes = 1 * GB
    uses_asm = True
    uses_atomics = True
    swaps = 700
    elements = 256

    def body(self, binary, env, variant):
        ld = binary.load_site("read_netlist", 8)
        cas = binary.atomic_site("elem_lock_cas", 8)
        a_ld = binary.atomic_site("swap_load", 8)
        a_st = binary.atomic_site("swap_store", 8)
        nworkers = self.nthreads
        swaps = self.iters(self.swaps)
        elements = self.elements

        def main(t):
            netlist = yield from t.malloc(128 * MB, align=4096)
            grid = yield from t.malloc(elements * 8, align=64)
            elocks = yield from t.malloc(elements * 8, align=64)
            env["grid"] = grid
            env["elements"] = elements
            for i in range(elements):
                yield from t.store(grid + i * 8, i + 1, 8)

            def acquire(w, lock_addr):
                for _ in range(50_000):
                    old = yield from w.atomic_cas(lock_addr, 0, 1, 8,
                                                  site=cas)
                    if old == 0:
                        return
                    yield from w.compute(60)
                raise AssertionError("canneal element lock livelock")

            def worker(w):
                wi = worker_index(w)
                for s in range(swaps):
                    if s % 64 == 0:
                        yield from w.bulk_touch(
                            netlist + wi * (256 * 1024), 256 * 1024,
                            site=ld)
                    h = (s * 48271 + wi * 1009) & 0x7FFFFFFF
                    i, j = h % elements, (h // 7) % elements
                    if i == j:
                        continue
                    i, j = min(i, j), max(i, j)
                    yield from w.compute(900)     # routing cost estimate
                    # lock-free-style swap via inline-assembly atomics:
                    # CAS element locks, exchange, release
                    yield from w.asm_begin()
                    yield from acquire(w, elocks + i * 8)
                    yield from acquire(w, elocks + j * 8)
                    va = yield from w.atomic_load(grid + i * 8, 8,
                                                  site=a_ld)
                    vb = yield from w.atomic_load(grid + j * 8, 8,
                                                  site=a_ld)
                    yield from w.atomic_store(grid + i * 8, vb, 8,
                                              site=a_st)
                    yield from w.atomic_store(grid + j * 8, va, 8,
                                              site=a_st)
                    yield from w.atomic_store(elocks + j * 8, 0, 8,
                                              site=a_st)
                    yield from w.atomic_store(elocks + i * 8, 0, 8,
                                              site=a_st)
                    yield from w.asm_end()

            yield from spawn_join(t, nworkers, worker)
            seen = yield from t.load_run(grid, elements, 8, 8)
            env["final_grid"] = seen

        return main

    def validate(self, env, engine):
        grid = sorted(env["final_grid"])
        expected = list(range(1, env["elements"] + 1))
        assert grid == expected, (
            "canneal grid corrupted: elements lost or duplicated "
            f"({len(set(grid))} unique of {env['elements']})")


class Dedup(Workload):
    """Deduplication pipeline: queue locks, openssl SHA assembly,
    allocation churn; 1.5 GB native footprint."""

    name = "dedup"
    suite = "parsec"
    footprint = 1536 * MB
    heap_bytes = 3 * GB
    uses_asm = True
    sync_rate = "high"
    chunks = 700

    def body(self, binary, env, variant):
        ld = binary.load_site("read_chunk", 8)
        st = binary.store_site("write_hash", 8)
        nworkers = self.nthreads
        chunks = self.iters(self.chunks)

        def main(t):
            data = yield from t.malloc(1 * GB, align=4096)
            hashes = yield from t.malloc(1 * MB, align=64)
            queue_lock = yield from t.mutex("queue")

            def worker(w):
                wi = worker_index(w)
                for c in range(chunks):
                    yield from w.lock(queue_lock)      # pop work item
                    yield from w.unlock(queue_lock)
                    yield from w.bulk_touch(
                        data + wi * (256 * 1024) , 256 * 1024, site=ld)
                    # SHA1 via openssl inline assembly
                    yield from w.asm_begin()
                    yield from w.compute(6_000)
                    yield from w.store(hashes + ((c * 5 + wi) % 1024) * 64,
                                       c, 8, site=st)
                    yield from w.asm_end()
                    buf = yield from w.malloc(1024)
                    yield from w.free(buf)
                    yield from w.lock(queue_lock)      # push result
                    yield from w.unlock(queue_lock)

            yield from spawn_join(t, nworkers, worker)

        return main


class Facesim(Workload):
    """Physics phases over a large mesh, barrier synchronized."""

    name = "facesim"
    suite = "parsec"
    footprint = 800 * MB
    heap_bytes = 2 * GB
    sync_rate = "medium"
    frames = 16

    def body(self, binary, env, variant):
        ld = binary.load_site("read_mesh", 8)
        st = binary.store_site("write_forces", 8)
        nworkers = self.nthreads
        frames = self.iters(self.frames)

        def main(t):
            mesh = yield from t.malloc(512 * MB, align=4096)
            bar = yield from t.barrier(nworkers, "phase")

            def worker(w):
                wi = worker_index(w)
                for f in range(frames):
                    for phase in range(3):
                        yield from w.bulk_touch(
                            mesh + wi * (768 * 1024)
                            + phase * (256 * 1024), 256 * 1024, site=ld)
                        yield from w.compute(45_000)
                        yield from w.bulk_touch(
                            mesh + wi * (768 * 1024), 64 * 1024,
                            is_write=True, site=st)
                        yield from w.barrier_wait(bar)

            yield from spawn_join(t, nworkers, worker)

        return main


class Ferret(Workload):
    """Similarity-search pipeline: stage queues under locks."""

    name = "ferret"
    suite = "parsec"
    footprint = 500 * MB
    heap_bytes = 1 * GB
    sync_rate = "high"
    queries = 260

    def body(self, binary, env, variant):
        ld = binary.load_site("read_image", 8)
        st = binary.store_site("write_rank", 8)
        nworkers = self.nthreads
        queries = self.iters(self.queries)

        def main(t):
            database = yield from t.malloc(384 * MB, align=4096)
            ranks = yield from t.malloc(1 * MB, align=64)
            stage_locks = []
            for s in range(3):
                lock = yield from t.mutex(f"stage{s}")
                stage_locks.append(lock)

            def worker(w):
                wi = worker_index(w)
                for q in range(queries):
                    for lock in stage_locks:
                        yield from w.lock(lock)
                        yield from w.unlock(lock)
                    yield from w.bulk_touch(
                        database + ((q * 13 + wi) % 24) * (64 * 1024),
                        64 * 1024, site=ld)
                    yield from w.compute(14_000)
                    yield from w.store(ranks + ((q + wi * 251) % 2048) * 64,
                                       q, 8, site=st)

            yield from spawn_join(t, nworkers, worker)

        return main


class Fluidanimate(Workload):
    """Grid-cell fluid simulation with thousands of fine-grained locks.

    TMI must shadow every lock in process-shared memory, which is why
    fluidanimate's memory overhead stands out in Figure 8."""

    name = "fluidanimate"
    suite = "parsec"
    footprint = 500 * MB
    heap_bytes = 1 * GB
    sync_rate = "high"
    ncells = 1200
    steps = 10

    def body(self, binary, env, variant):
        ld = binary.load_site("read_cell", 8)
        st = binary.store_site("write_cell", 8)
        nworkers = self.nthreads
        # native inputs have orders of magnitude more cells; the lock
        # count scales with the input so one-time init costs stay
        # proportionate
        ncells = max(16 * self.nthreads, self.iters(self.ncells))
        steps = max(1, self.iters(self.steps))

        def main(t):
            cells = yield from t.malloc(256 * MB, align=4096)
            locks = []
            for c in range(ncells):
                lock = yield from t.mutex(f"cell{c}")
                locks.append(lock)
            bar = yield from t.barrier(nworkers, "step")

            def worker(w):
                wi = worker_index(w)
                span = ncells // nworkers
                for s in range(steps):
                    for c in range(wi * span, (wi + 1) * span, 2):
                        lock = locks[c]
                        yield from w.lock(lock)
                        addr = cells + c * 4096
                        value = yield from w.load(addr, 8, site=ld)
                        yield from w.store(addr, value + 1, 8, site=st)
                        yield from w.unlock(lock)
                        yield from w.compute(700)
                    yield from w.bulk_touch(
                        cells + wi * (128 * 1024), 128 * 1024, site=ld)
                    yield from w.barrier_wait(bar)

            yield from spawn_join(t, nworkers, worker)

        return main


class Streamcluster(Workload):
    """Online clustering: read-mostly shared centers + barriers."""

    name = "streamcluster"
    suite = "parsec"
    footprint = 110 * MB
    heap_bytes = 1 * GB
    has_true_sharing = True
    sync_rate = "medium"
    rounds = 14

    def body(self, binary, env, variant):
        ld = binary.load_site("read_point", 8)
        ld_c = binary.load_site("read_center", 8)
        st_c = binary.store_site("open_center", 8)
        nworkers = self.nthreads
        rounds = self.iters(self.rounds)

        def main(t):
            points = yield from t.malloc(64 * MB, align=4096)
            centers = yield from t.malloc(4096, align=64)
            cost_lock = yield from t.mutex("cost")
            bar = yield from t.barrier(nworkers, "round")

            def worker(w):
                wi = worker_index(w)
                for r in range(rounds):
                    yield from w.bulk_touch(
                        points + wi * (192 * 1024), 192 * 1024, site=ld)
                    for i in range(40):
                        yield from w.load(centers + (i % 8) * 64, 8,
                                          site=ld_c)
                        yield from w.compute(600)
                    yield from w.lock(cost_lock)
                    value = yield from w.load(centers, 8, site=ld_c)
                    yield from w.store(centers, value + 1, 8, site=st_c)
                    yield from w.unlock(cost_lock)
                    yield from w.barrier_wait(bar)

            yield from spawn_join(t, nworkers, worker)

        return main


class Swaptions(Workload):
    """Monte-Carlo swaption pricing: tiny footprint, pure compute."""

    name = "swaptions"
    suite = "parsec"
    footprint = 5 * MB
    swaptions = 32

    def body(self, binary, env, variant):
        ld = binary.load_site("read_swaption", 8)
        st = binary.store_site("write_value", 8)
        nworkers = self.nthreads
        swaptions = self.iters(self.swaptions)

        def main(t):
            data = yield from t.malloc(2 * MB, align=64)

            def worker(w):
                wi = worker_index(w)
                for s in range(swaptions):
                    yield from w.load(data + (wi * swaptions + s) * 128,
                                      8, site=ld)
                    yield from w.compute(90_000)      # MC simulations
                    yield from w.store(
                        data + (wi * swaptions + s) * 128 + 64, s, 8,
                        site=st)

            yield from spawn_join(t, nworkers, worker)

        return main


PARSEC = (Blackscholes, Bodytrack, Canneal, Dedup, Facesim, Ferret,
          Fluidanimate, Streamcluster, Swaptions)
