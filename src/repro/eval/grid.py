"""The campaign checkpoint step: run cells, store each ok result.

:func:`run_checkpointed` is how the campaign service executes a
campaign's store misses.  It streams the cells through the hardened
pool (:func:`~repro.eval.parallel.run_cells_recorded`, which replays a
raising cell exactly once) and puts each harness-``ok`` result in the
content-addressed store as soon as it is collected, before the caller
sees its record.  The store is the only checkpoint: a killed service
loses at most the cells in flight, and resuming a campaign means
running the cells the store does not hold.

The store keeps JSON-serializable *summaries*
(:func:`summarize_outcome`: statuses, cycles, fault counts), not live
:class:`~repro.eval.runner.RunOutcome` objects.
"""

from repro.eval.parallel import CELL_OK, run_cells_recorded


def summarize_outcome(outcome):
    """JSON-serializable digest of one RunOutcome for the store."""
    if outcome is None:
        return None
    summary = {"workload": getattr(outcome, "workload", None),
               "system": getattr(outcome, "system", None),
               "status": getattr(outcome, "status", None),
               "detail": getattr(outcome, "detail", ""),
               "cycles": getattr(outcome, "cycles", None)}
    faults = getattr(outcome, "faults", None)
    if faults is not None:
        summary["fault_counts"] = dict(faults["counts"])
    return summary


def run_checkpointed(cells, store, jobs=None, timeout=None, pool=None,
                     on_record=None):
    """Run ``cells``, storing each ok result as it is collected;
    returns :class:`~repro.eval.parallel.CellRecord` objects in input
    order.

    ``store`` is a :class:`~repro.service.store.ResultStore`; every
    harness-``ok`` cell is in it before ``on_record(record)`` sees the
    record, so work collected here survives the caller being killed.
    ``jobs``, ``timeout`` and ``pool`` forward to
    :func:`~repro.eval.parallel.run_cells_recorded`.
    """
    def collected(record):
        if record.status == CELL_OK:
            store.put(record.cell, record.status,
                      summarize_outcome(record.outcome), record.error)
        if on_record is not None:
            on_record(record)
    return run_cells_recorded(cells, jobs=jobs, timeout=timeout,
                              pool=pool, on_record=collected)
