"""Event records emitted by the simulated machine.

The coherence directory publishes :class:`HitmEvent` records whenever an
access hits a remote core's Modified line — the hardware event underlying
Intel's ``MEM_LOAD_UOPS_LLC_HIT_RETIRED.XSNP_HITM`` PEBS counter that TMI
samples (paper section 2.1).
"""

from dataclasses import dataclass


@dataclass(slots=True)
class HitmEvent:
    """One access that hit a remote Modified cache line.

    Attributes mirror what the real PEBS machinery can observe: the
    accessor's PC and virtual address, plus simulation-side truth (the
    physical address and remote core) that the detector must *not* use
    directly — it only sees sampled :class:`~repro.oskit.perf.PebsRecord`.
    """

    cycle: int
    core: int
    tid: int
    pc: int
    va: int
    pa: int
    width: int
    is_store: bool
    remote_core: int

