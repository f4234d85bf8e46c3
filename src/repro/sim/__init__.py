"""Simulated multicore substrate: physical memory, virtual address
spaces, MESI coherence with HITM events, and the cycle cost model."""

from repro.sim.addrspace import AddressSpace, Backing, Mapping, PRIVATE, SHARED
from repro.sim.cache import CoherenceDirectory
from repro.sim.costs import (CostModel, DEFAULT_COSTS, LINE_SIZE, PAGE_2M,
                             PAGE_4K)
from repro.sim.events import HitmEvent
from repro.sim.machine import Machine
from repro.sim.physmem import PhysicalMemory

__all__ = [
    "AddressSpace", "Backing", "Mapping", "PRIVATE", "SHARED",
    "CoherenceDirectory", "CostModel", "DEFAULT_COSTS", "LINE_SIZE",
    "PAGE_2M", "PAGE_4K", "HitmEvent", "Machine", "PhysicalMemory",
]
