"""Invalidation-based cache coherence with HITM event generation.

Models the single-writer multiple-reader (SWMR) invariant of a MESI
protocol over *physical* cache lines (paper section 2).  The model is a
central directory: for each line, which cores hold it and in what state.
Capacity and conflict misses are out of scope — false sharing costs come
from coherence serialization, which this captures — but lines can be
flushed explicitly (PTSB commits, frame recycling).

Whenever an access finds the line Modified in a *remote* private cache,
the directory reports a HITM, the hardware event TMI's detector samples.
"""

from repro.sim.costs import LINE_SIZE

#: MESI states (Invalid is represented by absence).
MODIFIED = "M"
EXCLUSIVE = "E"
SHARED_ST = "S"


class AccessOutcome:
    """Cost and coherence effects of one memory access."""

    __slots__ = ("cost", "hitm_remotes", "lines")

    def __init__(self):
        self.cost = 0
        self.hitm_remotes = []     # remote core ids that held M
        self.lines = 0

    @property
    def hitm(self):
        """Whether any accessed line hit remote-Modified."""
        return bool(self.hitm_remotes)


class CoherenceDirectory:
    """Directory-based MESI over physical line addresses.

    The dominant steady state in every workload is a core re-hitting a
    line it already owns in M/E with no other core in the line's recent
    contention history.  ``_fast`` is an *owner micro-cache* for exactly
    that case: line -> (owner core, holders dict, owner's ``_recent``
    timestamp cell).  A single-line access is
    :meth:`~repro.sim.machine.Machine.mem_access`'s, in one frame.  The
    fast hit charges ``load_hit``/``store_hit``, performs the E->M
    upgrade in place, and refreshes the owner's contention timestamps —
    byte-for-byte what the protocol would compute — without walking
    ``_lines``/``_recent``.  Any other single-line access is the
    protocol step: the machine drops another core's entry, resets the
    pooled outcome (``_pool``) and calls :meth:`_line`, which
    reinstalls an entry when the sole-owner condition holds after the
    step.  :meth:`access` keeps multi-line accesses and PTSB commit
    probes and always runs the protocol: it drops the line's entry
    first, and a single-line probe reinstalls it the same way, so a
    fast-owned line costs and ends the same either way.  Entries are
    evicted whenever the line takes the protocol (any other core
    touching it, or a multi-line access) and on :meth:`flush_range`.
    ``ReferenceDirectory`` in ``cache_ref.py`` keeps the unoptimized
    model for differential testing.
    """

    def __init__(self, costs, n_cores, topology=None, home_of=None):
        self.costs = costs
        self.n_cores = n_cores
        self._lines = {}           # line pa -> {core: state}
        self._recent = {}          # line pa -> {core: [last_any, last_wr]}
        self._fast = {}            # line pa -> (core, holders, mine)
        self._pool = AccessOutcome()
        # cost constants, snapshotted (CostModel instances are never
        # mutated after construction)
        self._contend_window = costs.contend_window
        self._contend_penalty = costs.contend_penalty
        self._contend_max_cores = costs.contend_max_cores
        # NUMA: with one socket (or no topology) _multi stays False and
        # no access ever takes a socket-aware branch, keeping single-
        # socket runs byte-identical to the pre-NUMA machine.
        self._multi = topology is not None and topology.sockets > 1
        self._socket_of = (topology.socket_map() if self._multi
                           else (0,) * n_cores)
        self._home_of = home_of
        self.hitm_load_count = 0
        self.hitm_store_count = 0
        self.access_count = 0
        self.contended_accesses = 0
        self.hitm_cross_socket_count = 0
        self.qpi_hops = 0
        self.remote_mem_fills = 0

    # ------------------------------------------------------------------
    def access(self, core, pa, width, is_write, now=0):
        """Perform one access; returns an :class:`AccessOutcome`.

        Accesses that straddle a line boundary are split and each line is
        charged independently (as hardware does for split accesses).
        ``now`` (the accessing core's clock) drives the hot-line
        contention model.

        The returned outcome is pooled: it is only valid until the next
        ``access`` call.  Callers must consume (or copy) its fields
        before performing another access.
        """
        first = pa & ~(LINE_SIZE - 1)
        last = (pa + width - 1) & ~(LINE_SIZE - 1)
        out = self._pool
        out.cost = 0
        out.lines = 1
        if out.hitm_remotes:
            out.hitm_remotes = []

        fast = self._fast
        if first == last:
            # the line's micro-cache entry goes before the full protocol
            # runs; the step reinstalls it if the core still owns it
            fast.pop(first, None)
            self._line(core, first, is_write, now, out, fast)
            self.access_count += 1
            return out

        out.lines = 0
        line = first
        while line <= last:
            fast.pop(line, None)
            self._line(core, line, is_write, now, out, None)
            out.lines += 1
            line += LINE_SIZE
        self.access_count += 1
        return out

    def _line(self, core, line, is_write, now, out, fast):
        """One line's share of an access, in one step: the MESI
        transition (HITM counters and NUMA costs included), then the
        hot-line contention tax, both added to ``out``.

        The contention tax (see CostModel.contend_penalty): a serialized
        per-op simulation understates how badly a line that several
        cores conflict on behaves, because in hardware every access to
        such a line queues behind in-flight ownership transfers.  Each
        access pays a penalty per remote core that touched the line
        within a recent window, whenever the conflict involves a writer
        (SWMR serialization); read-only sharing stays free.

        ``fast`` is the owner micro-cache of a single-line access, whose
        caller has already dropped any entry for ``line``: the step
        installs one when ``core`` is left the line's sole M/E holder
        and sole recent toucher.  A multi-line access passes None and
        installs nothing.
        """
        costs = self.costs
        holders = self._lines.get(line)
        if holders is None:
            holders = self._lines[line] = {}
        mine = holders.get(core)
        if not is_write:
            if mine is not None:
                out.cost += costs.load_hit
            else:
                remote_m = None
                for other, state in holders.items():
                    if state == MODIFIED:
                        remote_m = other
                        break
                if remote_m is not None:
                    # HITM: remote Modified line supplies the data.
                    holders[remote_m] = SHARED_ST
                    holders[core] = SHARED_ST
                    out.cost += costs.hitm_load
                    out.hitm_remotes.append(remote_m)
                    self.hitm_load_count += 1
                    if self._multi and \
                            self._socket_of[remote_m] != self._socket_of[core]:
                        out.cost += costs.qpi_hop
                        self.qpi_hops += 1
                        self.hitm_cross_socket_count += 1
                elif holders:
                    if self._multi:
                        my_socket = self._socket_of[core]
                        if all(self._socket_of[o] != my_socket
                               for o in holders):
                            out.cost += costs.qpi_hop
                            self.qpi_hops += 1
                    for other in holders:
                        if holders[other] == EXCLUSIVE:
                            holders[other] = SHARED_ST
                    holders[core] = SHARED_ST
                    out.cost += costs.shared_fill
                else:
                    holders[core] = EXCLUSIVE
                    out.cost += costs.mem_fill
                    if self._multi and \
                            self._home_of(line, core) != self._socket_of[core]:
                        out.cost += costs.numa_remote_fill
                        self.remote_mem_fills += 1
        elif mine == MODIFIED:
            out.cost += costs.store_hit
        elif mine == EXCLUSIVE:
            holders[core] = MODIFIED
            out.cost += costs.store_hit
        else:
            remote_m = None
            others = []
            for other, state in holders.items():
                if other != core:
                    if remote_m is None and state == MODIFIED:
                        remote_m = other
                    others.append(other)
            if remote_m is not None:
                # store that invalidates a remote Modified line (store
                # HITM)
                del holders[remote_m]
                holders[core] = MODIFIED
                out.cost += costs.hitm_store
                out.hitm_remotes.append(remote_m)
                self.hitm_store_count += 1
                if self._multi and \
                        self._socket_of[remote_m] != self._socket_of[core]:
                    out.cost += costs.qpi_hop
                    self.qpi_hops += 1
                    self.hitm_cross_socket_count += 1
            elif mine == SHARED_ST or others:
                if self._multi:
                    my_socket = self._socket_of[core]
                    if any(self._socket_of[o] != my_socket for o in others):
                        out.cost += costs.qpi_hop
                        self.qpi_hops += 1
                for other in others:
                    del holders[other]
                holders[core] = MODIFIED
                out.cost += (costs.upgrade if mine == SHARED_ST
                             else costs.mem_fill)
            else:
                holders[core] = MODIFIED
                out.cost += costs.mem_fill
                if self._multi and \
                        self._home_of(line, core) != self._socket_of[core]:
                    out.cost += costs.numa_remote_fill
                    self.remote_mem_fills += 1

        # contention tax, from the line's recent-toucher history
        recent = self._recent.get(line)
        if recent is None:
            cell = [now, now if is_write else None]
            recent = self._recent[line] = {core: cell}
        else:
            horizon = now - self._contend_window
            conflicting = 0
            stale = False
            for other, (last_any, last_write) in recent.items():
                if other == core:
                    continue
                if last_any < horizon:
                    stale = True
                    continue
                if is_write or (last_write is not None
                                and last_write >= horizon):
                    conflicting += 1
            if stale and len(recent) > 4:
                for other in [o for o, (la, _lw) in recent.items()
                              if la < horizon and o != core]:
                    del recent[other]
            cell = recent.get(core)
            if cell is None:
                cell = recent[core] = [now, now if is_write else None]
            else:
                cell[0] = now
                if is_write:
                    cell[1] = now
            if conflicting:
                self.contended_accesses += 1
                out.cost += self._contend_penalty * min(
                    conflicting, self._contend_max_cores)

        if fast is not None and len(holders) == 1 and len(recent) == 1:
            state = holders[core]
            if state is MODIFIED or state is EXCLUSIVE:
                fast[line] = (core, holders, cell)

    # ------------------------------------------------------------------
    def flush_range(self, pa, nbytes):
        """Invalidate every copy of every line in [pa, pa+nbytes).

        Also drops the contention history for the flushed lines: after a
        PTSB commit or frame recycle the physical line is gone, so new
        accesses must not keep paying ``contend_penalty`` against its
        pre-flush sharers.
        """
        first = pa & ~(LINE_SIZE - 1)
        last = (pa + nbytes - 1) & ~(LINE_SIZE - 1)
        line = first
        while line <= last:
            self._lines.pop(line, None)
            self._recent.pop(line, None)
            self._fast.pop(line, None)
            line += LINE_SIZE

    def invalidate_fast_path(self):
        """Drop every owner micro-cache entry (state stays intact).

        Called around events that re-home threads across address spaces
        (T2P forks): the MESI state itself is keyed by physical line and
        survives, but the micro-cache's owner assumptions are cheap to
        rebuild and this keeps the invalidation story auditable.
        """
        self._fast.clear()

    def line_holders(self, pa):
        """{core: state} for the line containing ``pa`` (test hook)."""
        return dict(self._lines.get(pa & ~(LINE_SIZE - 1), {}))

    def check_swmr(self):
        """Assert the SWMR invariant over every tracked line.

        Returns the number of lines checked; raises AssertionError on a
        violation.  Used by property-based tests.
        """
        for line, holders in self._lines.items():
            writers = [c for c, s in holders.items() if s == MODIFIED]
            if len(writers) > 1:
                raise AssertionError(
                    f"line {line:#x}: multiple writers {writers}")
            if writers and len(holders) > 1:
                raise AssertionError(
                    f"line {line:#x}: writer {writers[0]} coexists with "
                    f"readers {sorted(holders)}")
            exclusive = [c for c, s in holders.items() if s == EXCLUSIVE]
            if exclusive and len(holders) > 1:
                raise AssertionError(
                    f"line {line:#x}: E holder with other sharers")
        return len(self._lines)

