"""Simulated threads and processes.

A :class:`SimThread` is a Python generator plus an execution context:
the core it runs on, the :class:`SimProcess` whose address space its
accesses translate through, its code-centric region stack, and stats.

Thread-to-process conversion — the heart of TMI's repair (section 3.2)
— is literally ``thread.process = <new SimProcess with a forked address
space>``; after that, per-page protection changes in the new space no
longer affect other threads.
"""

from dataclasses import dataclass, field

#: Thread states.
READY = "ready"
BLOCKED = "blocked"
PARKED = "parked"       # stopped by ptrace
DONE = "done"


@dataclass(eq=False)
class SimProcess:
    """A process: a pid and an address space."""

    pid: int
    aspace: object
    name: str = ""
    threads: list = field(default_factory=list)
    #: Installed by runtimes that maintain a PTSB for this process.
    ptsb: object = None
    #: Set with the PTSB by runtimes whose consistency model routes
    #: atomic, volatile and in-region accesses around it (TMI's
    #: code-centric policy).  The engine sends exactly those accesses
    #: of a routed process through ``runtime.translate``; every other
    #: access translates through the address space's cache.
    routed: bool = False


class SimThread:
    """One simulated thread of execution."""

    def __init__(self, tid, name, core, process, body):
        self.tid = tid
        self.name = name or f"t{tid}"
        self.core = core
        self.process = process
        self.body = body
        self.gen = None                 # generator, set by the engine
        self.state = READY
        self.ready_time = 0
        self.pending_value = None       # sent into the generator next step
        self.pending_penalty = 0        # cycles charged when next scheduled
        self.region_stack = []          # [(kind, ordering)] innermost last
        self.joiners = []               # tids blocked in join on us
        self.blocked_on = None          # sync object or ('join', tid)
        self.seq = 0                    # scheduler tiebreaker
        # in-flight RmwSeq/StoreSeq continuation (engine-owned): the
        # engine yields the core mid-run whenever another thread
        # becomes runnable, then resumes here instead of re-entering
        # the generator
        self.run_op = None              # the sequence being executed
        self.run_plan = None            # run_op decoded (_exec_seq_op)
        self.run_index = 0              # next sub-op
        self.run_carried = None         # an RMW's load, until its store
        # statistics
        self.ops = 0
        self.loads = 0
        self.stores = 0
        self.atomics = 0
        self.sync_ops = 0

    # ------------------------------------------------------------------
    @property
    def in_asm_region(self):
        """Whether the thread is inside an inline-assembly region."""
        return any(kind == "asm" for kind, _ in self.region_stack)

    def routes(self, op):
        """Whether the load, store or sequence ``op`` goes around this
        thread's PTSB through the runtime's ``translate``: the process
        is :attr:`~SimProcess.routed` and ``op`` is volatile or inside
        an atomic or asm region (atomics of a routed process always
        are).  Region boundaries are separate ops, so the answer holds
        for a whole dispatch of a sequence."""
        return self.process.routed and (op.volatile
                                        or bool(self.region_stack))

    def __repr__(self):
        return (f"SimThread({self.tid}, {self.name!r}, core={self.core}, "
                f"pid={self.process.pid}, {self.state})")
