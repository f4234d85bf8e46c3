"""Mechanical application of a repair plan to a Program.

:class:`LayoutRewriter` wraps every thread body of a Program in a
generator that forwards ops to the engine while remapping the address
of any access that falls inside a relocated span.  The wrapper:

- allocates the repair arena as its very first op (through the active
  runtime's allocator, so footprint accounting and TMI's shared-region
  placement come for free), aligning the returned base up to a line
  boundary itself -- no allocator-specific alignment contract needed;
- observes every ``Malloc`` the program performs, counts ordinals, and
  binds the plan's allocation-relative spans to the addresses actually
  returned (pthreads and TMI place the same ordinal differently);
- rewrites ``ThreadCreate`` bodies recursively so worker threads remap
  through the same span table.

Accesses that only *partially* overlap a span are forwarded unmapped
and counted (``stats.partial``); the planner's atom construction
guarantees a well-formed plan produces none.

:class:`RemapView` gives ``final_state``/``validate`` oracles the same
translation for their debug reads: a rewritten program must pass its
final-state oracle bit-identically to the original, which is the
semantic-preservation gate of the repair-compare experiment.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Generator

from repro.engine.program import Program
from repro.isa import ops as O
from repro.sim.costs import LINE_SIZE

if TYPE_CHECKING:                            # pragma: no cover
    from repro.analysis.repair.planner import RepairPlan


@dataclass
class RewriteStats:
    """Counters a rewrite accumulates while the program runs."""

    remapped_ops: int = 0
    partial: int = 0
    spans_bound: int = 0
    arena_base: int = 0


class LayoutRewriter:
    """Applies one RepairPlan to one (single-use) Program."""

    def __init__(self, program: Program, plan: "RepairPlan") -> None:
        self.program = program
        self.plan = plan
        self.stats = RewriteStats()
        self._by_ordinal = {}
        for relocation in plan.relocations:
            self._by_ordinal.setdefault(relocation.ordinal, []).append(
                relocation)
        self._ordinal = 0
        self._arena_base = None
        #: ordinal -> base address actually returned at run time (the
        #: repair scorer translates line addresses between allocator
        #: geometries through this).
        self.observed = {}
        # bound spans, sorted by source base for bisect lookup
        self._bases = []
        self._spans = []           # (src_base, src_end, dest_base)
        self._lo = 0               # envelope for the fast no-remap path
        self._hi = 0

    # ------------------------------------------------------------------
    def rewrite(self) -> Program:
        """Return a new Program whose bodies remap through the plan."""
        program = self.program
        rewritten = Program(
            name=program.name, binary=program.binary,
            main=self._wrap(program.main, toplevel=True),
            nthreads=program.nthreads, features=program.features,
            heap_bytes=program.heap_bytes, env=program.env,
            validate=self._wrap_validate(program.validate))
        rewritten.memory_view = self.view
        return rewritten

    def view(self, engine: object) -> "RemapView":
        """A read view over ``engine`` that follows relocations."""
        return RemapView(engine, self)

    # ------------------------------------------------------------------
    # span binding
    # ------------------------------------------------------------------
    def _bind_arena(self, addr: int) -> None:
        self._arena_base = (addr + LINE_SIZE - 1) & ~(LINE_SIZE - 1)
        self.stats.arena_base = self._arena_base

    def _bind_malloc(self, addr: int) -> None:
        ordinal = self._ordinal
        self._ordinal += 1
        self.observed[ordinal] = addr
        relocations = self._by_ordinal.get(ordinal)
        if not relocations or self._arena_base is None:
            return
        for relocation in relocations:
            src = addr + relocation.offset
            entry = (src, src + relocation.length,
                     self._arena_base + relocation.dest)
            index = bisect_right(self._bases, src)
            self._bases.insert(index, src)
            self._spans.insert(index, entry)
            self.stats.spans_bound += 1
        self._lo = self._spans[0][0]
        self._hi = max(end for _s, end, _d in self._spans)

    # ------------------------------------------------------------------
    # address mapping
    # ------------------------------------------------------------------
    def _map(self, addr: int, width: int) -> int:
        """Remapped address, or ``addr`` when outside every span.

        A partial overlap (the planner guarantees none) is left
        unmapped and counted.
        """
        if addr + width <= self._lo or addr >= self._hi:
            return addr
        index = bisect_right(self._bases, addr) - 1
        if index >= 0:
            src, end, dest = self._spans[index]
            if addr + width <= end:
                return dest + (addr - src)
            if addr < end:
                self.stats.partial += 1
                return addr
        if index + 1 < len(self._spans):
            nxt_src = self._spans[index + 1][0]
            if addr + width > nxt_src:
                self.stats.partial += 1
        return addr

    # ------------------------------------------------------------------
    # generator wrapping
    # ------------------------------------------------------------------
    def _wrap(self, body: object, toplevel: bool = False) -> object:
        rewriter = self

        def wrapped(ctx: object) -> Generator:
            if toplevel and rewriter.plan.arena_bytes:
                addr = yield O.Malloc(
                    rewriter.plan.arena_bytes + LINE_SIZE, 0)
                rewriter._bind_arena(addr)
            gen = body(ctx)
            value = None
            while True:
                try:
                    op = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                value = yield from rewriter._dispatch(op)

        return wrapped

    def _wrap_validate(self, validate: object) -> object:
        if validate is None:
            return None
        rewriter = self

        def validated(env: object, engine: object) -> object:
            return validate(env, rewriter.view(engine))

        return validated

    def _dispatch(self, op: object) -> Generator:
        cls = op.__class__
        if cls is O.Malloc:
            addr = yield op
            self._bind_malloc(addr)
            return addr
        if cls is O.ThreadCreate:
            tid = yield replace(op, body=self._wrap(op.body))
            return tid
        if cls in (O.Load, O.Store, O.AtomicLoad, O.AtomicStore,
                   O.AtomicRMW, O.StoreSeq):
            mapped = self._map(op.addr, op.width)
            if mapped != op.addr:
                self.stats.remapped_ops += 1
                op = replace(op, addr=mapped)
            return (yield op)
        if cls is O.RmwSeq:
            return (yield self._rmw_seq(op))
        return (yield op)

    def _rmw_seq(self, op: O.RmwSeq) -> O.RmwSeq:
        addrs = op.addrs
        lo = min(addrs)
        hi = max(addrs) + op.width
        if hi <= self._lo or lo >= self._hi:
            return op
        mapped = tuple(self._map(addr, op.width) for addr in addrs)
        if mapped == addrs:
            return op
        self.stats.remapped_ops += 1
        return replace(op, addrs=mapped)


class RemapView:
    """Engine proxy whose debug reads follow the rewrite's spans.

    ``final_state``/``validate`` oracles read result memory through
    ``engine.read_memory``; under a rewritten program those bytes live
    at their relocated addresses.  Reads that straddle a span boundary
    are assembled byte-wise (little-endian, matching physical memory).
    """

    def __init__(self, engine: object, rewriter: LayoutRewriter) -> None:
        self._engine = engine
        self._rewriter = rewriter

    def read_memory(self, va: int, width: int,
                    aspace: object = None) -> int:
        rewriter = self._rewriter
        mapped = rewriter._map(va, width)
        if mapped != va:
            return self._engine.read_memory(mapped, width, aspace)
        if width > 1 and not (va + width <= rewriter._lo
                              or va >= rewriter._hi):
            value = 0
            for index in range(width):
                byte = self._engine.read_memory(
                    rewriter._map(va + index, 1), 1, aspace)
                value |= byte << (8 * index)
            return value
        return self._engine.read_memory(va, width, aspace)

    def __getattr__(self, name: str) -> object:
        return getattr(self._engine, name)


def rewrite_program(program: Program, plan: "RepairPlan") -> tuple:
    """Apply ``plan`` to ``program``; returns ``(rewritten, rewriter)``.

    The rewritten Program is single-use, like every Program: its
    generators and the rewriter's span bindings are consumed by one
    run.
    """
    rewriter = LayoutRewriter(program, plan)
    return rewriter.rewrite(), rewriter
