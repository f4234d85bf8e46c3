"""OS services kit: shm, /proc maps, perf/PEBS sampling, ptrace."""

from repro.oskit.perf import PebsRecord, PerfSession
from repro.oskit.procmaps import AddressMap, MapEntry
from repro.oskit.ptrace import ConversionRecord, PtraceMonitor
from repro.oskit.shm import SharedMemoryNamespace

__all__ = [
    "PebsRecord", "PerfSession", "AddressMap", "MapEntry",
    "ConversionRecord", "PtraceMonitor", "SharedMemoryNamespace",
]
