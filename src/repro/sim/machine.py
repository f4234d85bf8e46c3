"""The simulated multicore machine.

Bundles physical memory, the coherence directory, per-core clocks, and an
event bus.  The execution engine drives it; runtimes (TMI, Sheriff,
LASER) observe it through listeners — most importantly ``on_hitm``, which
feeds the simulated PEBS machinery.
"""

from repro.errors import SimulationError
from repro.sim.cache import EXCLUSIVE, MODIFIED, CoherenceDirectory
from repro.sim.costs import DEFAULT_COSTS, LINE_SIZE
from repro.sim.events import HitmEvent
# a single-line access moves its word through physical memory's codecs
from repro.sim.physmem import (_CHUNK, _CHUNK_MASK, _INT_CODEC, _INT_MASK,
                               PhysicalMemory)
from repro.sim.topology import Topology

#: Page-placement policies a multi-socket machine understands.
PAGE_POLICIES = ("first-touch", "interleave")

_LINE_BASE = -LINE_SIZE
_LINE_OFFSET = LINE_SIZE - 1


class Machine:
    """Cores + memory + coherence for one simulation run.

    ``topology`` groups the cores into sockets; the default single
    socket is the exact pre-NUMA machine (byte-identical costs).  With
    ``sockets >= 2`` the directory charges QPI hop and remote-fill
    costs, and ``pages`` selects how 4 KB frames acquire NUMA home
    nodes: ``"first-touch"`` homes a frame on the socket of the first
    core to miss on it; ``"interleave"`` stripes frames round-robin
    across sockets.
    """

    def __init__(self, n_cores=8, costs=None, topology=None,
                 pages="first-touch"):
        self.costs = costs or DEFAULT_COSTS
        self.n_cores = n_cores
        self.topology = topology or Topology(sockets=1,
                                             cores_per_socket=n_cores)
        if self.topology.n_cores < n_cores:
            raise SimulationError(
                f"topology covers {self.topology.n_cores} cores, "
                f"machine needs {n_cores}")
        if pages not in PAGE_POLICIES:
            raise SimulationError(f"unknown page policy {pages!r}")
        self.page_policy = pages
        self.physmem = PhysicalMemory()
        multi = self.topology.sockets > 1
        self.directory = CoherenceDirectory(
            self.costs, n_cores, topology=self.topology,
            home_of=self._home_of if multi else None)
        self.core_clock = [0] * n_cores
        self._hitm_listeners = []
        self.hitm_events = 0
        # bound containers and the pooled outcome, never reassigned
        # (the micro-cache is cleared in place), and cost constants,
        # never mutated
        self._fast = self.directory._fast
        self._outcome = self.directory._pool
        self._chunks = self.physmem._chunks
        self._load_hit = self.costs.load_hit
        self._store_hit = self.costs.store_hit

    def _home_of(self, line, core):
        """Home node of ``line``'s frame, assigning it on first miss."""
        frame = line >> 12
        node = self.physmem._home_nodes.get(frame)
        if node is None:
            if self.page_policy == "interleave":
                node = frame % self.topology.sockets
            else:
                node = self.topology.socket_of(core)
            self.physmem._home_nodes[frame] = node
        return node

    # ------------------------------------------------------------------
    # listeners
    # ------------------------------------------------------------------
    def add_hitm_listener(self, callback):
        """``callback(HitmEvent)`` fires on every HITM the hardware sees.

        Returns the extra cycles the listener charges to the accessing
        thread (PEBS record/interrupt costs), or None.
        """
        self._hitm_listeners.append(callback)

    # ------------------------------------------------------------------
    # memory operations (physical level)
    # ------------------------------------------------------------------
    def mem_access(self, core, tid, pc, va, pa, width, is_write,
                   value=None):
        """One data access: coherence + data movement.

        Returns ``(cost, loaded_value)``; ``loaded_value`` is None for
        stores.  Fires HITM listeners and accumulates their costs.

        A single-line access is one frame below the caller.  On a line
        ``core`` owns in the directory's owner micro-cache it is the
        fast hit: exactly the directory's own update for that case (the
        owner's timestamps, the one E->M upgrade), the hit price, which
        can raise no HITM.  On any other line it is the protocol step:
        it drops another core's micro-cache entry, resets the
        directory's pooled outcome and runs
        :meth:`CoherenceDirectory._line`, which may install an entry
        for ``core``.  Both count the access and share one tail that
        moves the word to or from its 4 KB chunk through physical
        memory's width codec (a line never crosses a chunk); a width
        with no codec goes through :meth:`PhysicalMemory.read_int` /
        :meth:`~PhysicalMemory.write_int`.  An access that straddles a
        line goes through :meth:`CoherenceDirectory.access`.
        """
        now = self.core_clock[core]
        directory = self.directory
        if (pa & _LINE_OFFSET) + width <= LINE_SIZE:
            line = pa & _LINE_BASE
            fast = self._fast
            entry = fast.get(line)
            if entry is not None and entry[0] == core:
                mine = entry[2]
                mine[0] = now
                if is_write:
                    mine[1] = now
                    holders = entry[1]
                    if holders[core] is EXCLUSIVE:
                        holders[core] = MODIFIED
                    cost = self._store_hit
                else:
                    cost = self._load_hit
                remotes = None
            else:
                if entry is not None:
                    del fast[line]
                outcome = self._outcome
                outcome.cost = 0
                if outcome.hitm_remotes:
                    outcome.hitm_remotes = []
                directory._line(core, line, is_write, now, outcome, fast)
                cost = outcome.cost
                remotes = outcome.hitm_remotes
            directory.access_count += 1
            codec = _INT_CODEC.get(width)
        else:
            outcome = directory.access(core, pa, width, is_write, now)
            cost = outcome.cost
            remotes = outcome.hitm_remotes
            codec = None
        if remotes:
            if not self._hitm_listeners:
                self.hitm_events += len(remotes)
            else:
                # snapshot: the outcome is pooled, and listeners may
                # re-enter mem_access (runtime instrumentation issuing
                # its own probes)
                for remote in tuple(remotes):
                    self.hitm_events += 1
                    event = HitmEvent(
                        cycle=now, core=core, tid=tid, pc=pc,
                        va=va, pa=pa, width=width, is_store=is_write,
                        remote_core=remote,
                    )
                    for listener in self._hitm_listeners:
                        extra = listener(event)
                        if extra:
                            cost += extra
        if codec is None:
            if is_write:
                self.physmem.write_int(pa, value, width)
                return cost, None
            return cost, self.physmem.read_int(pa, width)
        off = pa & _CHUNK_MASK
        chunk = self._chunks.get(pa - off)
        if is_write:
            if chunk is None:
                chunk = self._chunks[pa - off] = bytearray(_CHUNK)
            codec.pack_into(chunk, off, value & _INT_MASK[width])
            return cost, None
        if chunk is None:
            return cost, 0
        return cost, codec.unpack_from(chunk, off)[0]

    def advance(self, core, cycles):
        """Advance one core's clock."""
        self.core_clock[core] += cycles

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def fill_metrics(self, registry):
        """Fold machine state into a
        :class:`~repro.obs.metrics.MetricsRegistry`.

        This is the first-class replacement for reading the machine's
        counters ad hoc at the end of a run: HITM totals, the machine
        clock, and per-core clocks all land in one labeled namespace.
        """
        directory = self.directory
        registry.counter("machine.hitm.loads").inc(
            directory.hitm_load_count)
        registry.counter("machine.hitm.stores").inc(
            directory.hitm_store_count)
        registry.counter("machine.hitm.events").inc(self.hitm_events)
        registry.gauge("machine.cycles").set(self.now)
        registry.gauge("machine.cores").set(self.n_cores)
        for core, clock in enumerate(self.core_clock):
            registry.gauge("machine.core_cycles", core=core).set(clock)
        if self.topology.sockets > 1:
            # NUMA namespace only exists on multi-socket machines, so
            # single-socket metrics snapshots stay unchanged.
            registry.gauge("machine.sockets").set(self.topology.sockets)
            registry.counter("machine.hitm.cross_socket").inc(
                directory.hitm_cross_socket_count)
            registry.counter("machine.qpi.hops").inc(directory.qpi_hops)
            registry.counter("machine.numa.remote_fills").inc(
                directory.remote_mem_fills)
            for socket in range(self.topology.sockets):
                cores = [c for c in self.topology.cores_of(socket)
                         if c < self.n_cores]
                busiest = max((self.core_clock[c] for c in cores),
                              default=0)
                registry.gauge("machine.socket_cycles",
                               socket=socket).set(busiest)

    @property
    def now(self):
        """Machine time = the furthest core clock (wall-clock proxy)."""
        return max(self.core_clock)

    def elapsed_seconds(self):
        """Simulated wall-clock runtime so far."""
        return self.costs.seconds(self.now)
