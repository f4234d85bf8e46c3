"""Per-process virtual address spaces.

Implements the memory machinery TMI depends on (paper section 3.2):

- mappings over shared, file-backed *backings* (the ``shm_open`` region
  that holds all application stacks, globals, and heap under TMI),
- private copy-on-write remapping of individual pages (the repair
  mechanism's "second mapping"),
- per-page permissions (read-only protection to intercept writes),
- 4 KB and 2 MB page sizes (section 4.4),
- fork() cloning for thread-to-process conversion.

Translation returns the *physical* address an access touches; the cache
model keys coherence state by physical line, so two processes with
private copies of the same virtual page genuinely stop contending —
exactly the paper's repair mechanism.
"""

import bisect
from dataclasses import dataclass, field

from repro.errors import InvalidMappingError, SegmentationFault
from repro.sim.costs import PAGE_4K

#: Mapping sharing modes.
SHARED = "shared"
PRIVATE = "private"


class Backing:
    """A contiguous range of physical memory backing mappings.

    ``file_backed`` distinguishes shm/file regions (whose first-touch
    faults are more expensive and which TMI can remap per-process) from
    anonymous memory.
    """

    _ids = 0

    def __init__(self, physmem, nbytes, name="", file_backed=False):
        if nbytes <= 0:
            raise InvalidMappingError(f"backing of {nbytes} bytes")
        Backing._ids += 1
        self.id = Backing._ids
        self.name = name or f"backing{self.id}"
        self.physmem = physmem
        self.nbytes = nbytes
        self.file_backed = file_backed
        self.base_pa = physmem.alloc(nbytes)

    def page_pa(self, offset):
        """Physical address of the byte at ``offset`` into the backing."""
        if not 0 <= offset < self.nbytes:
            raise InvalidMappingError(
                f"offset {offset:#x} outside backing {self.name}"
            )
        return self.base_pa + offset


@dataclass
class PageState:
    """Per-virtual-page state inside one address space."""

    writable: bool = True
    mode: str = SHARED
    private_pa: int = 0        # 0 = no private frame yet (COW pending)
    touched: bool = False      # first-touch fault already taken?


@dataclass
class Translation:
    """Result of a virtual->physical translation."""

    pa: int
    cost: int = 0
    faults: list = field(default_factory=list)   # (kind, page_va, page_size)


class Mapping:
    """One contiguous virtual mapping inside an address space."""

    def __init__(self, start, nbytes, backing, backing_offset=0,
                 mode=SHARED, page_size=PAGE_4K, name=""):
        if start % page_size or nbytes % page_size:
            raise InvalidMappingError(
                f"mapping [{start:#x}+{nbytes:#x}] not {page_size}-aligned"
            )
        if backing_offset + nbytes > backing.nbytes:
            raise InvalidMappingError("mapping extends past its backing")
        self.start = start
        self.nbytes = nbytes
        self.backing = backing
        self.backing_offset = backing_offset
        self.mode = mode
        self.page_size = page_size
        self.name = name or backing.name
        self.pages = {}            # page index -> PageState

    @property
    def end(self):
        """First VA past the mapping."""
        return self.start + self.nbytes

    def page_index(self, va):
        """Index of the page holding ``va`` within this mapping."""
        return (va - self.start) // self.page_size

    def page_state(self, index):
        """The (lazily created) per-page state for ``index``."""
        state = self.pages.get(index)
        if state is None:
            state = PageState(mode=self.mode)
            self.pages[index] = state
        return state

    def clone(self, physmem):
        """Deep-copy for fork(): shared pages stay shared; existing
        private frames are duplicated eagerly."""
        new = Mapping(self.start, self.nbytes, self.backing,
                      self.backing_offset, self.mode, self.page_size,
                      self.name)
        for index, state in self.pages.items():
            copy = PageState(state.writable, state.mode, 0, state.touched)
            if state.private_pa:
                copy.private_pa = physmem.alloc(self.page_size)
                physmem.copy_page(state.private_pa, copy.private_pa,
                                  self.page_size)
            new.pages[index] = copy
        return new


class AddressSpace:
    """A process's page tables.

    ``cow_hook(mapping, page_index, shared_pa, private_pa)`` is invoked
    whenever a copy-on-write fault materializes a private frame; TMI's
    PTSB uses it to capture twin pages.
    """

    def __init__(self, physmem, costs, name="as"):
        self.physmem = physmem
        self.costs = costs
        self.name = name
        self._starts = []          # sorted mapping start addresses
        self._maps = []            # mappings, parallel to _starts
        self.cow_hook = None
        self.fault_count = {"anon": 0, "shared_file": 0, "cow": 0}
        self.private_bytes = 0     # physical bytes in private frames
        # Translation micro-cache: (va >> 12) -> (pa - va, granule end).
        # An entry exists only for 4 KB granules in *steady state* —
        # touched, and either shared+writable or already-COWed private —
        # where translation is a constant offset with zero cost for both
        # reads and writes.  Any page-table mutation (mmap/munmap/split/
        # protect/unprotect) clears the whole cache; fork starts empty.
        self._tcache = {}

    # ------------------------------------------------------------------
    # mapping management
    # ------------------------------------------------------------------
    def mmap(self, start, nbytes, backing, backing_offset=0, mode=SHARED,
             page_size=PAGE_4K, name=""):
        """Install a mapping; returns the :class:`Mapping`."""
        mapping = Mapping(start, nbytes, backing, backing_offset, mode,
                          page_size, name)
        index = bisect.bisect_left(self._starts, start)
        if index < len(self._maps) and self._maps[index].start < mapping.end:
            raise InvalidMappingError(
                f"mapping [{start:#x}+{nbytes:#x}] overlaps "
                f"{self._maps[index].name}"
            )
        if index > 0 and self._maps[index - 1].end > start:
            raise InvalidMappingError(
                f"mapping [{start:#x}+{nbytes:#x}] overlaps "
                f"{self._maps[index - 1].name}"
            )
        self._starts.insert(index, start)
        self._maps.insert(index, mapping)
        self._tcache.clear()
        return mapping

    def munmap(self, start):
        """Remove the mapping that begins at ``start``."""
        index = bisect.bisect_left(self._starts, start)
        if index >= len(self._maps) or self._maps[index].start != start:
            raise InvalidMappingError(f"no mapping at {start:#x}")
        mapping = self._maps.pop(index)
        self._starts.pop(index)
        self._tcache.clear()
        for state in mapping.pages.values():
            if state.private_pa:
                self.physmem.free(state.private_pa, mapping.page_size)
                self.private_bytes -= mapping.page_size
        return mapping

    def split_mapping_page(self, va, new_page_size=PAGE_4K):
        """Split the huge page containing ``va`` out of its mapping and
        remap it with ``new_page_size`` pages.

        Used by targeted repair when the application region uses 2 MB
        pages: protection (and therefore diff/commit) then operates at
        4 KB granularity while the rest of the region keeps its huge
        pages.  Returns the new small-page mapping.  Pages with live
        private frames cannot be split (commit first).
        """
        mapping = self._require(va)
        if mapping.page_size <= new_page_size:
            return mapping
        index = mapping.page_index(va)
        state = mapping.pages.get(index)
        if state is not None and state.private_pa:
            raise InvalidMappingError(
                f"cannot split page {va:#x} with a live private frame")
        big = mapping.page_size
        split_start = mapping.start + index * big
        was_touched = bool(state and state.touched)

        pos = bisect.bisect_left(self._starts, mapping.start)
        self._starts.pop(pos)
        self._maps.pop(pos)
        self._tcache.clear()

        pieces = []
        if split_start > mapping.start:
            before = Mapping(mapping.start, split_start - mapping.start,
                             mapping.backing, mapping.backing_offset,
                             mapping.mode, big, mapping.name)
            for i, st in mapping.pages.items():
                if i < index:
                    before.pages[i] = st
            pieces.append(before)
        small = Mapping(split_start, big, mapping.backing,
                        mapping.backing_offset + index * big,
                        mapping.mode, new_page_size, mapping.name)
        if was_touched:
            for i in range(big // new_page_size):
                small.pages[i] = PageState(mode=mapping.mode,
                                           touched=True)
        pieces.append(small)
        if split_start + big < mapping.end:
            after = Mapping(split_start + big,
                            mapping.end - split_start - big,
                            mapping.backing,
                            mapping.backing_offset + (index + 1) * big,
                            mapping.mode, big, mapping.name)
            for i, st in mapping.pages.items():
                if i > index:
                    after.pages[i - index - 1] = st
            pieces.append(after)
        for piece in pieces:
            pos = bisect.bisect_left(self._starts, piece.start)
            self._starts.insert(pos, piece.start)
            self._maps.insert(pos, piece)
        if hasattr(mapping, "bulk_watermark"):
            # conservative: attribute the old watermark to the first piece
            pieces[0].bulk_watermark = min(mapping.bulk_watermark,
                                           pieces[0].nbytes)
        return small

    def mapping_at(self, va):
        """The mapping containing ``va``, or None."""
        index = bisect.bisect_right(self._starts, va) - 1
        if index < 0:
            return None
        mapping = self._maps[index]
        return mapping if va < mapping.end else None

    def mappings(self):
        """All mappings, ordered by start address."""
        return list(self._maps)

    # ------------------------------------------------------------------
    # page protection (the repair knobs)
    # ------------------------------------------------------------------
    def protect_page(self, va, writable=False, mode=PRIVATE):
        """Switch one page to ``mode`` with the given writability.

        TMI's targeted repair calls this with the defaults: the page
        becomes process-private and read-only, so the next write takes a
        COW fault that the PTSB intercepts.
        """
        mapping = self._require(va)
        state = mapping.page_state(mapping.page_index(va))
        state.mode = mode
        state.writable = writable
        self._tcache.clear()
        return state

    def unprotect_page(self, va):
        """Return one page to the shared, writable state, dropping any
        private frame (its contents are discarded — commit first)."""
        mapping = self._require(va)
        state = mapping.page_state(mapping.page_index(va))
        if state.private_pa:
            self.physmem.free(state.private_pa, mapping.page_size)
            self.private_bytes -= mapping.page_size
            state.private_pa = 0
        state.mode = SHARED
        state.writable = True
        self._tcache.clear()
        return state

    def page_base(self, va):
        """(page_va, page_size) of the page containing ``va``."""
        mapping = self._require(va)
        index = mapping.page_index(va)
        return mapping.start + index * mapping.page_size, mapping.page_size

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------
    def _cache_granule(self, va, pa):
        granule = va & ~0xFFF
        self._tcache[va >> 12] = (pa - va, granule + 4096)

    def invalidate_translations(self):
        """Drop the translation micro-cache.

        Must be called by any code that mutates page state without
        going through this class's methods (the PTSB re-arming a page
        after commit, the PTSB-everywhere ablation flipping whole
        mappings to PRIVATE); the mmap/protect/split methods here
        already do it themselves.
        """
        self._tcache.clear()

    def translate(self, va, width, is_write):
        """Translate an access; services faults; returns :class:`Translation`.

        Raises :class:`SegmentationFault` for unmapped addresses or
        un-serviceable permission violations.
        """
        mapping = self.mapping_at(va)
        if mapping is None:
            raise SegmentationFault(va, is_write, "unmapped")
        if va + width > mapping.end:
            raise SegmentationFault(va, is_write, "access crosses mapping end")
        index = mapping.page_index(va)
        if mapping.page_index(va + width - 1) != index:
            raise SegmentationFault(va, is_write, "access crosses page")
        state = mapping.page_state(index)
        result = Translation(pa=0)

        if not state.touched:
            state.touched = True
            kind = "shared_file" if mapping.backing.file_backed else "anon"
            result.cost += (self.costs.fault_shared_file
                            if kind == "shared_file"
                            else self.costs.fault_anon)
            result.faults.append((kind, mapping.start
                                  + index * mapping.page_size,
                                  mapping.page_size))
            self.fault_count[kind] += 1

        shared_pa = mapping.backing.page_pa(
            mapping.backing_offset + index * mapping.page_size)

        if state.mode == SHARED:
            if is_write and not state.writable:
                raise SegmentationFault(va, True, "write to read-only page")
            result.pa = shared_pa + (va - mapping.start
                                     - index * mapping.page_size)
            if state.writable:
                self._cache_granule(va, result.pa)
            return result

        # PRIVATE page
        if state.private_pa == 0:
            if not is_write:
                # reads before the copy still reference the shared frame
                result.pa = shared_pa + (va - mapping.start
                                         - index * mapping.page_size)
                return result
            # copy-on-write fault
            state.private_pa = self.physmem.alloc(mapping.page_size)
            self.physmem.copy_page(shared_pa, state.private_pa,
                                   mapping.page_size)
            self.private_bytes += mapping.page_size
            result.cost += self.costs.fault_cow
            result.cost += int(self.costs.copy_per_byte * mapping.page_size)
            result.faults.append(("cow", mapping.start
                                  + index * mapping.page_size,
                                  mapping.page_size))
            self.fault_count["cow"] += 1
            if self.cow_hook is not None:
                extra = self.cow_hook(self, mapping, index, shared_pa,
                                      state.private_pa)
                if extra:
                    result.cost += extra
            state.writable = True
        result.pa = state.private_pa + (va - mapping.start
                                        - index * mapping.page_size)
        # post-COW private frames translate identically for reads and
        # writes, so the granule is steady state
        self._cache_granule(va, result.pa)
        return result

    def shared_pa(self, va):
        """Physical address of ``va`` through the always-shared mapping.

        This is the paper's *first* mapping (Figure 6): always process-
        shared and writable, used by the runtime for diffs and merges
        regardless of per-process protection.
        """
        mapping = self._require(va)
        index = mapping.page_index(va)
        base = mapping.backing.page_pa(
            mapping.backing_offset + index * mapping.page_size)
        return base + (va - mapping.start - index * mapping.page_size)

    def private_pa(self, va):
        """Physical address of ``va``'s private frame, or None."""
        mapping = self._require(va)
        state = mapping.page_state(mapping.page_index(va))
        if not state.private_pa:
            return None
        index = mapping.page_index(va)
        return state.private_pa + (va - mapping.start
                                   - index * mapping.page_size)

    # ------------------------------------------------------------------
    # fork
    # ------------------------------------------------------------------
    def fork(self, name):
        """Clone this address space for a new process."""
        child = AddressSpace(self.physmem, self.costs, name)
        child.cow_hook = self.cow_hook
        for mapping in self._maps:
            cloned = mapping.clone(self.physmem)
            index = bisect.bisect_left(child._starts, cloned.start)
            child._starts.insert(index, cloned.start)
            child._maps.insert(index, cloned)
            for state in cloned.pages.values():
                if state.private_pa:
                    child.private_bytes += mapping.page_size
        return child

    def _require(self, va):
        mapping = self.mapping_at(va)
        if mapping is None:
            raise SegmentationFault(va, False, "unmapped")
        return mapping
