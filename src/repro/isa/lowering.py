"""Lowering of sequence ops for the lockstep kernel.

:func:`lower_seq` lowers an :class:`~repro.isa.ops.RmwSeq` or
:class:`~repro.isa.ops.StoreSeq` to the :class:`SeqShape` the vector
core's lockstep kernel (:mod:`repro.engine.vector`) reads: the phase
cost cycle, the element count, the shared RMW delta and the width
mask.  The per-element addresses, deltas and values stay on the op.
Lowering touches no simulated state.
"""

from typing import NamedTuple, Optional

from repro.isa.ops import RmwSeq, StoreSeq


class SeqShape(NamedTuple):
    """The per-shape constants of one sequence op.

    Sub-op ``i`` of the sequence is phase ``i % len(costs)`` of element
    ``i // len(costs)``.  An RMW element's phases are load, store and
    (when the op computes) compute; a store sequence's are store and
    compute.  A fast hit costs exactly ``costs[phase]``.
    """

    is_rmw: bool
    #: Fast-hit cycle cost of each phase, in phase order.
    costs: tuple
    #: Number of elements.
    count: int
    #: The RMW delta every element adds, or None when it varies per
    #: element (and for store sequences).
    delta: Optional[int]
    #: ``2**(8*width) - 1``: a stored RMW result wraps to the width.
    mask: int


def seq_key(op):
    """The fields that determine ``op``'s :class:`SeqShape` — class,
    element count, width, compute and shared delta — or None when
    ``op`` is not a sequence op.  Two ops with the same key lower to
    the same shape whatever their addresses."""
    cls = op.__class__
    if cls is RmwSeq:
        deltas = op.deltas
        return (cls, len(op.addrs), op.width, op.compute,
                deltas if isinstance(deltas, int) else None)
    if cls is StoreSeq:
        return (cls, len(op.values), op.width, op.compute, None)
    return None


def lower_seq(key, load_hit, store_hit):
    """The :class:`SeqShape` of the sequence ops with :func:`seq_key`
    ``key``, priced with the cost model's ``load_hit``/``store_hit``."""
    cls, count, width, compute, delta = key
    is_rmw = cls is RmwSeq
    costs = (load_hit, store_hit) if is_rmw else (store_hit,)
    if compute:
        costs += (compute,)
    return SeqShape(is_rmw, costs, count, delta, (1 << (8 * width)) - 1)
