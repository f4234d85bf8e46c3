"""Exception hierarchy for the repro package.

Every error raised by the simulator, runtimes, or harness derives from
:class:`ReproError` so callers can catch the package's failures with a
single except clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The simulated machine reached an invalid state."""


class SegmentationFault(SimulationError):
    """An access touched an unmapped or permission-violating address.

    This is the simulated analog of SIGSEGV *escaping* to the process: a
    fault that no installed fault handler resolved.
    """

    def __init__(self, va, is_write, reason):
        self.va = va
        self.is_write = is_write
        self.reason = reason
        access = "write" if is_write else "read"
        super().__init__(f"segfault: {access} at {va:#x}: {reason}")


class InvalidMappingError(SimulationError):
    """An mmap/mprotect/munmap call had invalid arguments."""


class AllocationError(ReproError):
    """The memory allocator could not satisfy a request."""


class InvalidProgramError(ReproError):
    """A Program or WorkloadFeatures declaration is malformed.

    Raised at construction time — a bad ``sync_rate`` or non-positive
    ``nthreads``/``heap_bytes`` should fail before a single simulated
    cycle, not deep inside a run.
    """


class CycleBudgetError(SimulationError):
    """The engine's ``max_cycles`` budget was exhausted.

    Carries the partial schedule trace (policy name, seed, and the
    decision log up to the point of exhaustion) so a livelocking
    fuzzed interleaving becomes a replayable artifact instead of a
    hang.  ``trace`` is None for default-scheduled runs, which record
    no decisions.
    """

    def __init__(self, now, budget, trace=None):
        self.now = now
        self.budget = budget
        self.trace = trace
        super().__init__(f"cycle budget exceeded ({now} > {budget})")


class DeadlockError(SimulationError):
    """No runnable thread exists but unfinished threads remain."""

    def __init__(self, blocked_tids, message="deadlock: all threads blocked"):
        self.blocked_tids = tuple(blocked_tids)
        super().__init__(f"{message}: tids={self.blocked_tids}")


class HangError(SimulationError):
    """A thread exceeded its liveness bound (simulated hang).

    Used to reproduce the paper's Figure 12: under a PTSB without
    code-centric consistency, cholesky's flag-based synchronization spins
    forever.  The engine converts an out-of-budget spin loop into this
    exception so the condition is testable.
    """

    def __init__(self, tid, detail):
        self.tid = tid
        self.detail = detail
        super().__init__(f"thread {tid} hang detected: {detail}")


class IncompatibleWorkloadError(ReproError):
    """A runtime system cannot run a workload (e.g. Sheriff on leveldb)."""

    def __init__(self, system, workload, reason):
        self.system = system
        self.workload = workload
        self.reason = reason
        super().__init__(f"{system} incompatible with {workload}: {reason}")


class PtraceError(ReproError):
    """An invalid ptrace request (bad state transition, unknown thread)."""


class ShmError(ReproError):
    """A named shared-memory operation failed."""

    def __init__(self, name, reason):
        self.name = name
        self.reason = reason
        super().__init__(f"shm {name!r}: {reason}")


class ShmNameError(ShmError):
    """``shm_unlink`` (or a lookup) named a region that does not exist."""

    def __init__(self, name, known):
        self.known = tuple(known)
        super().__init__(name, f"unknown name (known: {list(known)})")


class ShmExhaustedError(ShmError):
    """``shm_open`` could not create a region (namespace exhausted).

    The simulated analog of ``shm_open`` returning ``EMFILE``/``ENOSPC``;
    injected by fault plans and raised for real when a namespace's
    ``capacity`` is reached.
    """

    def __init__(self, name, reason="namespace exhausted"):
        super().__init__(name, reason)


class ShmSizeMismatchError(ShmError, InvalidMappingError):
    """A region was reopened with a size different from its creation.

    Also an :class:`InvalidMappingError` so existing callers that treat
    the mismatch as a mapping-argument error keep working.
    """

    def __init__(self, name, have, want):
        self.have = have
        self.want = want
        super().__init__(
            name, f"reopened with different size ({want} != {have})")


class FaultPlanError(ReproError):
    """A fault-injection plan is malformed (unknown point, bad format)."""


class CampaignSpecError(ReproError, ValueError):
    """A campaign spec is malformed (unknown workload/system, bad
    format tag, invalid knob values)."""


class ServiceTimeoutError(ReproError, TimeoutError):
    """A client-side wait on a campaign outlived its budget.

    Names the campaign and the last state the client observed — the
    campaign itself keeps running; only the wait is abandoned.  Also a
    :class:`TimeoutError` so pre-existing callers that caught the bare
    builtin keep working.
    """

    def __init__(self, campaign_id, last_status, timeout):
        self.campaign_id = campaign_id
        self.last_status = last_status
        self.timeout = timeout
        super().__init__(
            f"campaign {campaign_id} not terminal after {timeout}s "
            f"(last observed: {last_status})")


class ConsistencyViolationError(SimulationError):
    """A runtime broke memory consistency rules it promised to uphold.

    Raised by the consistency checker when, e.g., a PTSB is active inside
    an atomic or assembly region under a runtime that claims code-centric
    consistency (paper Table 2, shaded cells only permit PTSB use).
    """
