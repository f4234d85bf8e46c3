"""Operations of the simulated instruction set.

Workload thread bodies are Python generators that *yield* these ops; the
engine executes each against the machine and sends results back.  This
gives the reproduction per-access interception — the thing a Python
harness cannot do to native code — inside the simulator.

Each data access carries an :class:`InstrSite` (its static instruction):
the PC recorded in PEBS samples and consumed by the disassembler when the
detector classifies accesses (paper section 3.1).

Region markers (``RegionBegin``/``RegionEnd``) are the code-centric
consistency callbacks of section 3.4.2 — in the paper an LLVM pass
inserts them; here workload "compilation" emits them around atomic and
inline-assembly code.

Ops are slotted dataclasses but not frozen: a workload builds one per
yield, and a frozen dataclass's ``__init__`` pays one
``object.__setattr__`` per field, several times the cost of a plain
build.  Nothing hashes or mutates an op; the repair rewriter derives
patched ops with :func:`dataclasses.replace`.  :class:`InstrSite`
stays frozen: a site is built once per binary and never changes.
"""

from dataclasses import dataclass, field

#: Region kinds for code-centric consistency (paper Table 2).
REGION_ATOMIC = "atomic"
REGION_ASM = "asm"

#: Atomic memory orderings we distinguish (section 3.4.1, Case 2: relaxed
#: needs atomicity only and need not flush the PTSB).
RELAXED = "relaxed"
ACQ_REL = "acq_rel"
SEQ_CST = "seq_cst"


@dataclass(frozen=True, slots=True)
class InstrSite:
    """One static instruction in a workload's binary."""

    pc: int
    label: str
    kind: str          # 'load' | 'store' | 'atomic' | 'other'
    width: int


@dataclass(slots=True)
class Load:
    site: InstrSite
    addr: int
    width: int
    volatile: bool = False


@dataclass(slots=True)
class Store:
    site: InstrSite
    addr: int
    value: int
    width: int
    volatile: bool = False


@dataclass(slots=True)
class AtomicRMW:
    """LOCK-prefixed read-modify-write; returns the old value.

    ``op`` is one of 'add', 'xchg', 'cas'; for 'cas' ``operand`` is the
    new value and ``expected`` the comparison value.
    """

    site: InstrSite
    addr: int
    op: str
    operand: int
    width: int
    ordering: str = SEQ_CST
    expected: int = 0


@dataclass(slots=True)
class AtomicLoad:
    site: InstrSite
    addr: int
    width: int
    ordering: str = SEQ_CST


@dataclass(slots=True)
class AtomicStore:
    site: InstrSite
    addr: int
    value: int
    width: int
    ordering: str = SEQ_CST


@dataclass(slots=True)
class AccessRun:
    """A run of ``count`` same-site plain accesses ``stride`` bytes apart.

    Semantically identical to yielding ``count`` individual
    :class:`Load`/:class:`Store` ops at ``addr, addr+stride, ...`` — the
    engine still translates, charges coherence, and fires HITM listeners
    per access, and still yields the core between accesses whenever
    another thread becomes runnable — but the whole run costs one
    generator round-trip instead of ``count``.  Loads send the list of
    loaded values back into the generator; stores write ``value`` to
    every slot.
    """

    site: InstrSite
    addr: int
    count: int
    stride: int
    width: int
    is_write: bool
    value: int = 0
    volatile: bool = False


@dataclass(slots=True)
class RmwSeq:
    """A sequence of plain load/store/compute read-modify-write steps.

    Element ``i`` is exactly the three-op loop body ``value =
    load(addrs[i]); store(addrs[i], value + deltas[i]); compute(compute)``
    — the idiom of every per-thread accumulator loop in the suite — with
    the stored value wrapping modulo ``2**(8*width)``.  The engine
    executes the elements access-by-access (translating, charging
    coherence, firing HITM listeners and observer callbacks per access,
    and yielding the core at exactly the points the three-yield loop
    would), so a sequence is cycle-for-cycle identical to its unbatched
    form while costing one generator round-trip instead of
    ``3 * len(addrs)``.  ``deltas`` may be a single int applied to every
    element.  A zero ``compute`` omits the compute step entirely.
    """

    load_site: InstrSite
    store_site: InstrSite
    addrs: tuple
    width: int
    deltas: tuple
    compute: int
    volatile: bool = False


@dataclass(slots=True)
class StoreSeq:
    """A sequence of plain store/compute steps to one address.

    Element ``i`` is exactly ``store(addr, values[i]); compute(compute)``
    — the "publish then hash" idiom — executed access-by-access with the
    same per-access interception and scheduling points as the two-yield
    loop, for one generator round-trip.  A zero ``compute`` omits the
    compute step.
    """

    site: InstrSite
    addr: int
    values: tuple
    width: int
    compute: int
    volatile: bool = False


@dataclass(slots=True)
class Fence:
    site: InstrSite


@dataclass(slots=True)
class Compute:
    """Pure CPU work: advances the clock without touching memory."""

    cycles: int


@dataclass(slots=True)
class BulkTouch:
    """Analytic streaming access over [addr, addr+nbytes).

    Models large, uncontended working sets (the multi-GB native inputs)
    without materializing host memory: charges fill and fault costs and
    updates touch accounting, but does not move bytes.
    """

    site: InstrSite
    addr: int
    nbytes: int
    is_write: bool


@dataclass(slots=True)
class RegionBegin:
    kind: str                  # REGION_ATOMIC | REGION_ASM
    ordering: str = SEQ_CST    # for atomic regions


@dataclass(slots=True)
class RegionEnd:
    kind: str


@dataclass(slots=True)
class MutexLock:
    mutex: object


@dataclass(slots=True)
class MutexUnlock:
    mutex: object


@dataclass(slots=True)
class BarrierWait:
    barrier: object


@dataclass(slots=True)
class CondWait:
    """pthread_cond_wait: atomically release ``mutex`` and sleep."""

    condvar: object
    mutex: object


@dataclass(slots=True)
class CondSignal:
    condvar: object
    broadcast: bool = False


@dataclass(slots=True)
class Malloc:
    """Heap allocation through the active runtime's allocator."""

    size: int
    align: int = 0             # 0 = allocator default


@dataclass(slots=True)
class FreeOp:
    addr: int


@dataclass(slots=True)
class ThreadCreate:
    """Spawn a new application thread running ``body(ctx)``."""

    body: object
    name: str = ""
    args: tuple = field(default_factory=tuple)


@dataclass(slots=True)
class ThreadJoin:
    tid: int
