"""Thread-placement policies: tid -> core, topology-aware.

A placement maps thread ids onto cores before the first op of each
thread runs.  The engine reserves its last core for the monitor /
detector service, so every policy places application threads onto
cores ``[0, n_cores - 1)`` only.

``compact`` is the engine's default: ``tid % (n_cores - 1)``, which
with this repo's dense core ids (socket 0 owns cores 0..k-1) packs
socket 0 before socket 1.  ``scatter`` round-robins threads *across
sockets*, and ``sharing-aware`` packs measured sharing groups onto
single sockets (see :mod:`repro.mapping.sharing`).
"""

from typing import Optional, Sequence

from repro.errors import SimulationError
from repro.sim.topology import Topology

#: Placement policies the eval grid accepts.
PLACEMENT_NAMES: tuple = ("compact", "scatter", "sharing-aware")


class Placement:
    """Base placement: precomputed core order, cycled by tid."""

    #: Policy name (grid/CLI identifier).
    name: str = "base"

    def __init__(self, topology: Topology, n_cores: int) -> None:
        self.topology = topology
        self.n_cores = n_cores
        if n_cores < 2:
            raise SimulationError(
                f"placement needs >= 2 cores (one is service-reserved), "
                f"got {n_cores}")
        self._order: Sequence[int] = self._core_order()
        if not self._order:
            raise SimulationError("placement produced no usable cores")

    def _usable(self) -> list:
        """Application cores: every core except the service core."""
        return list(range(self.n_cores - 1))

    def _core_order(self) -> Sequence[int]:
        """The core sequence tids cycle over (subclass hook)."""
        return self._usable()

    def core_for(self, tid: int) -> int:
        """Core that thread ``tid`` runs on."""
        return self._order[tid % len(self._order)]


class CompactPlacement(Placement):
    """Fill cores in id order, packing socket 0 before socket 1: the
    engine's default, ``tid % (n_cores - 1)``."""

    name = "compact"


class ScatterPlacement(Placement):
    """Round-robin threads across sockets (one core per socket per
    round), spreading load and memory bandwidth at the price of
    splitting shared working sets across the interconnect."""

    name = "scatter"

    def _core_order(self) -> Sequence[int]:
        usable = self._usable()
        per_socket: list = [[] for _ in range(self.topology.sockets)]
        for core in usable:
            per_socket[self.topology.socket_of(core)].append(core)
        order = []
        round_idx = 0
        while len(order) < len(usable):
            for socket in range(self.topology.sockets):
                cores = per_socket[socket]
                if round_idx < len(cores):
                    order.append(cores[round_idx])
            round_idx += 1
        return order


class SharingAwarePlacement(Placement):
    """Pack measured sharing groups onto single sockets.

    ``groups`` is a list of tid lists (from
    :func:`repro.mapping.sharing.affinity_groups`): threads that write
    the same cache lines.  Each group is assigned — largest first — to
    the socket with the most unassigned capacity, and its threads map
    onto that socket's cores (cycling when a group outnumbers them,
    which keeps the traffic on-socket even oversubscribed).  Tids in no
    group fall back to scatter order.
    """

    name = "sharing-aware"

    def __init__(self, topology: Topology, n_cores: int,
                 groups: Optional[Sequence[Sequence[int]]] = None) -> None:
        self.groups = [list(group) for group in (groups or [])]
        super().__init__(topology, n_cores)
        self._assignment: dict = {}
        self._assign_groups()
        self._fallback = ScatterPlacement(topology, n_cores)

    def _assign_groups(self) -> None:
        usable = set(self._usable())
        socket_cores = {
            socket: [core for core in self.topology.cores_of(socket)
                     if core in usable]
            for socket in range(self.topology.sockets)}
        free = {socket: len(cores)
                for socket, cores in socket_cores.items()}
        # largest group first; ties break on smallest member tid so the
        # assignment is independent of group discovery order
        ordered = sorted(self.groups,
                         key=lambda g: (-len(g), min(g) if g else 0))
        for group in ordered:
            if not group:
                continue
            socket = max(sorted(free), key=lambda s: free[s])
            # fill from the top of the socket: scatter fallback hands
            # unplaced threads (typically main) the socket's first
            # cores, so groups that fit never share a core with them
            cores = list(reversed(socket_cores[socket]))
            if not cores:
                continue
            for index, tid in enumerate(sorted(group)):
                self._assignment[tid] = cores[index % len(cores)]
            free[socket] = max(0, free[socket] - len(group))

    def core_for(self, tid: int) -> int:
        """Core for ``tid``: its group's socket, else scatter order."""
        core = self._assignment.get(tid)
        if core is not None:
            return core
        return self._fallback.core_for(tid)


def make_placement(policy: str, topology: Topology, n_cores: int,
                   groups: Optional[Sequence[Sequence[int]]] = None
                   ) -> Placement:
    """Build the named placement policy for one machine shape.

    ``groups`` is only consulted by ``sharing-aware`` (measured thread
    sharing groups); the other policies are purely topological.
    """
    if policy == "compact":
        return CompactPlacement(topology, n_cores)
    if policy == "scatter":
        return ScatterPlacement(topology, n_cores)
    if policy == "sharing-aware":
        return SharingAwarePlacement(topology, n_cores, groups=groups)
    raise SimulationError(f"unknown placement policy {policy!r}")
