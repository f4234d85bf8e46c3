"""Sequence-shape cache: sequence ops -> lowered :class:`SeqShape`.

Each engine owns one :class:`RunCompiler`.  A shape depends only on
the op's class, element count, width, compute and shared delta
(:func:`~repro.isa.lowering.seq_key`), never on its addresses, so the
sequence ops a loop emits share one entry even though each carries its
own address tuple.  The cache is per-engine (never shared across
runs), which keeps the hit/miss counters deterministic regardless of
``REPRO_JOBS`` sharding.
"""

from repro.isa.lowering import lower_seq, seq_key

#: Cache-size ceiling; programs with more distinct sequence shapes
#: than this lower the overflow every time rather than growing host
#: memory without bound.
MAX_CACHED = 4096


class RunCompiler:
    """Per-engine sequence-shape cache with hit/miss accounting."""

    def __init__(self, costs):
        self._load_hit = costs.load_hit
        self._store_hit = costs.store_hit
        self._cache = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, op):
        """Return the :class:`~repro.isa.lowering.SeqShape` of the
        sequence op ``op`` (lowering it on first sight of its shape),
        or ``None`` for any other op."""
        key = seq_key(op)
        if key is None:
            return None
        shape = self._cache.get(key)
        if shape is not None:
            self.hits += 1
            return shape
        self.misses += 1
        shape = lower_seq(key, self._load_hit, self._store_hit)
        if len(self._cache) < MAX_CACHED:
            self._cache[key] = shape
        return shape
