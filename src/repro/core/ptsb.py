"""The Page Twinning Store Buffer (PTSB).

The repair mechanism TMI borrows from Sheriff and deploys *targeted*
(sections 2.2, 3.3, Figure 2): a protected page is process-private and
copy-on-write; the first write captures a read-only *twin* (snapshot of
the shared page) and a mutable working copy; at synchronization
operations the working copy is diffed against the twin and only the
changed bytes are merged into shared memory, after which the page is
re-armed (private frame dropped, next write re-twins).

Because the diff cannot see a byte overwritten with an identical value,
an aligned multi-byte store can be torn into per-byte stores — the
AMBSA violation of Figure 3.  This module reproduces that faithfully:
merging changes *only* the bytes identified by the diff (updating other
bytes would fabricate stores the program never performed).
"""

from repro.sim.costs import LINE_SIZE, PAGE_4K


class PageTwinningStoreBuffer:
    """Per-process PTSB state and commit machinery."""

    def __init__(self, process, machine, costs,
                 huge_commit_optimization=True, on_commit=None,
                 faults=None, on_conflict=None, routed=False):
        self.process = process
        self.machine = machine
        self.costs = costs
        self.huge_commit_optimization = huge_commit_optimization
        self.on_commit = on_commit           # callback(commit info dict)
        self.faults = faults                 # armed FaultInjector or None
        self.on_conflict = on_conflict       # callback(page_va)
        self.conflicts = 0
        self._twins = {}     # (mapping id, page index) -> entry
        self.commit_count = 0
        self.committed_pages = 0
        self.merged_bytes = 0
        self.twin_bytes_peak = 0
        process.aspace.cow_hook = self.capture_twin
        process.ptsb = self
        # code-centric consistency routes some accesses around the
        # PTSB (SimProcess.routed); Sheriff's never does
        process.routed = routed

    # ------------------------------------------------------------------
    # twin capture (invoked from the COW fault path)
    # ------------------------------------------------------------------
    def capture_twin(self, aspace, mapping, index, shared_pa, private_pa):
        """Snapshot the pre-write page; returns extra fault cycles."""
        twin = self.machine.physmem.snapshot(shared_pa, mapping.page_size)
        self._twins[(id(mapping), index)] = (mapping, index, twin)
        live = sum(m.page_size for m, _i, _t in self._twins.values())
        self.twin_bytes_peak = max(self.twin_bytes_peak, live)
        # the twin is a second page copy on top of the COW copy
        return int(self.costs.copy_per_byte * mapping.page_size)

    @property
    def dirty_pages(self):
        return len(self._twins)

    # ------------------------------------------------------------------
    # commit (diff + merge), at synchronization operations
    # ------------------------------------------------------------------
    def commit(self, core, reason):
        """Diff and merge every dirty page; returns cycle cost.

        The merge performs real stores into the shared frames, so other
        processes observe exactly the changed bytes — and only those.
        """
        self.commit_count += 1
        if not self._twins:
            return 0
        costs = self.costs
        physmem = self.machine.physmem
        total = 0
        pages = 0
        merged = 0
        spans = [] if self.on_commit is not None else None
        for mapping, index, twin in self._twins.values():
            page_size = mapping.page_size
            state = mapping.pages[index]
            if not state.private_pa:
                continue
            working = physmem.read(state.private_pa, page_size)
            total += self._diff_cost(page_size, twin, working)
            if self.faults is not None and self.faults.fire(
                    "ptsb.commit_conflict", pid=self.process.pid,
                    page_va=mapping.start + index * page_size):
                # a concurrent writer dirtied the shared page between
                # diff and merge: the commit re-diffs and retries (the
                # merged bytes are still exactly the diffed bytes, so
                # correctness is unaffected -- the page just pays twice)
                self.conflicts += 1
                total += self._diff_cost(page_size, twin, working)
                total += costs.commit_page_fixed
                if self.on_conflict is not None:
                    self.on_conflict(mapping.start + index * page_size)
            shared_base = mapping.backing.page_pa(
                mapping.backing_offset + index * page_size)
            changed = _changed_runs(twin, working)
            touched_lines = set()
            for start, end in changed:
                physmem.write(shared_base + start, working[start:end])
                if spans is not None:
                    spans.append((shared_base + start, shared_base + end))
                merged += end - start
                total += int(costs.merge_per_byte * (end - start))
                first = (shared_base + start) & ~(LINE_SIZE - 1)
                last = (shared_base + end - 1) & ~(LINE_SIZE - 1)
                line = first
                while line <= last:
                    touched_lines.add(line)
                    line += LINE_SIZE
            now = self.machine.core_clock[core]
            for line in sorted(touched_lines):
                outcome = self.machine.directory.access(core, line, 1,
                                                        True, now=now)
                total += outcome.cost
            # re-arm the page: drop the working copy, stay protected
            self.machine.directory.flush_range(state.private_pa, page_size)
            physmem.free(state.private_pa, page_size)
            self.process.aspace.private_bytes -= page_size
            state.private_pa = 0
            total += costs.commit_page_fixed
            pages += 1
        self._twins.clear()
        if pages:
            # the re-arm dropped private frames behind translate's back
            self.process.aspace.invalidate_translations()
        self.committed_pages += pages
        self.merged_bytes += merged
        if self.on_commit is not None:
            self.on_commit({"pid": self.process.pid, "core": core,
                            "reason": reason, "pages": pages,
                            "bytes": merged, "spans": spans})
        return total

    def _diff_cost(self, page_size, twin, working):
        """Cycle cost of diffing one page.

        Huge pages first memcmp 4 KB chunks and scan bytes only in
        chunks that differ (section 4.4's commit optimization).
        """
        costs = self.costs
        if page_size <= PAGE_4K or not self.huge_commit_optimization:
            return int(costs.diff_per_byte * page_size)
        cost = int(costs.memcmp_per_byte * page_size)
        for off in range(0, page_size, PAGE_4K):
            if twin[off:off + PAGE_4K] != working[off:off + PAGE_4K]:
                cost += int(costs.diff_per_byte * PAGE_4K)
        return cost


def _changed_runs(twin, working):
    """Byte ranges [start, end) where ``working`` differs from ``twin``.

    Chunked equality tests keep the scan fast; the byte-level walk only
    happens inside unequal 64-byte spans.
    """
    runs = []
    n = len(twin)
    start = None
    for base in range(0, n, LINE_SIZE):
        span_t = twin[base:base + LINE_SIZE]
        span_w = working[base:base + LINE_SIZE]
        if span_t == span_w:
            if start is not None:
                runs.append((start, base))
                start = None
            continue
        for i in range(len(span_t)):
            if span_t[i] != span_w[i]:
                if start is None:
                    start = base + i
            elif start is not None:
                runs.append((start, base + i))
                start = None
    if start is not None:
        runs.append((start, n))
    return runs
