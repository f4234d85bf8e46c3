"""Plain pthreads execution: the paper's normalization baseline.

One process, one shared address space, anonymous memory, and the
Lockless Allocator (the paper's baseline allocator; a glibc-style
configuration is available for the allocator ablation).
"""

from repro.alloc import LocklessAllocator, RegionBump
from repro.engine import layout
from repro.engine.hooks import RuntimeHooks
from repro.sim.addrspace import Backing
from repro.sim.costs import PAGE_2M


class PthreadsRuntime(RuntimeHooks):
    """No interposition: the program runs natively.

    Anonymous heap/globals memory is mapped with 2 MB pages, modelling
    Linux's transparent huge pages on the paper's Ubuntu systems.
    """

    name = "pthreads"

    def __init__(self, allocator_kind="lockless"):
        self.allocator_kind = allocator_kind

    # ------------------------------------------------------------------
    def setup(self, engine):
        from repro.sim.addrspace import AddressSpace

        physmem = engine.machine.physmem
        costs = engine.costs
        aspace = AddressSpace(physmem, costs, name="app")
        heap_bytes = engine.program.heap_bytes

        globals_backing = Backing(physmem, layout.GLOBALS_SIZE, "globals")
        aspace.mmap(layout.GLOBALS_BASE, layout.GLOBALS_SIZE,
                    globals_backing, page_size=PAGE_2M,
                    name="globals")
        heap_backing = Backing(physmem, heap_bytes, "heap")
        aspace.mmap(layout.HEAP_BASE, heap_bytes, heap_backing,
                    page_size=PAGE_2M, name="heap")
        libc_backing = Backing(physmem, layout.LIBC_SIZE, "libc")
        aspace.mmap(layout.LIBC_BASE, layout.LIBC_SIZE, libc_backing,
                    name="libc")

        engine.root_aspace = aspace
        heap_region = RegionBump(layout.HEAP_BASE, heap_bytes, "heap")
        engine.allocator = LocklessAllocator(
            heap_region, costs,
            name=self.allocator_kind,
            global_arena=self.allocator_kind == "glibc",
        )
        self._stack_backings = {}

    def on_thread_created(self, engine, thread):
        self._map_stack(engine, thread)

    def _map_stack(self, engine, thread):
        tid = thread.tid
        if tid in self._stack_backings:
            return
        backing = Backing(engine.machine.physmem, layout.STACK_SIZE,
                          f"stack:{tid}")
        self._stack_backings[tid] = backing
        engine.root_aspace.mmap(layout.stack_base(tid), layout.STACK_SIZE,
                                backing, name=f"stack:{tid}")

    # ------------------------------------------------------------------
    def report(self, engine):
        return {"allocator": self.allocator_kind}
