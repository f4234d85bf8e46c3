"""Batch cache-state transition kernel for the vector executor.

:func:`apply_fast_mixed` advances the
:class:`~repro.sim.cache.CoherenceDirectory` over a whole *fast-hit
stretch* at once: a run of loads and stores by one core to lines it
already owns via the directory's owner micro-cache (``_fast``).  For
such a stretch the per-access slow path is provably a no-op beyond
timestamp refresh, the one-time E->M upgrade, and the access counter —
so ``k`` accesses on a line collapse to a single in-place update whose
observable directory state is byte-identical to ``k`` serial
``access()`` calls:

* ``mine[0]`` (owner's last-any timestamp) ends at the *last* access's
  pre-cost clock; earlier writes are overwritten by later ones.
* ``mine[1]`` (last-write) likewise, only touched by writes.
* ``holders[core]`` upgrades E->M at most once, on the first write.
* ``access_count`` grows by exactly ``k``; no HITM, no contention, no
  eviction — a fast hit never consults ``_recent`` beyond the shared
  ``mine`` cell and never evicts the entry.

The kernel never *installs* fast entries and never handles misses: the
executor verifies every line is already owned before it commits a
window.  ``tests/sim/test_cache_batch.py`` pins the equivalence
differentially against both ``CoherenceDirectory`` and the unoptimized
``ReferenceDirectory``.
"""

from repro.sim.cache import EXCLUSIVE, MODIFIED


def apply_fast_mixed(directory, core, line_finals, total):
    """Apply a batch of mixed load/store fast hits in place.

    ``line_finals`` maps ``line -> [last_any_now, last_write_now]`` —
    the accessing core's pre-cost clocks at the final access and final
    *write* the batch performs on that line (``last_write_now`` is None
    for lines the batch only read).  ``total`` is the number of
    accesses collapsed.  Every line must currently be fast-owned by
    ``core``.
    """
    fast = directory._fast
    for line, (last_any, last_write) in line_finals.items():
        entry = fast[line]
        entry[2][0] = last_any
        if last_write is not None:
            entry[2][1] = last_write
            holders = entry[1]
            if holders[core] is EXCLUSIVE:
                holders[core] = MODIFIED
    directory.access_count += total
