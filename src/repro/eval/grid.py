"""The campaign shard step: run cells, store every ok result.

:func:`run_checkpointed` is how the campaign service executes one
shard of store misses.  It runs the cells through the hardened pool
(:func:`~repro.eval.parallel.run_cells_recorded`, which replays a
raising cell exactly once) and puts every harness-``ok`` result in the
content-addressed store before it returns.  The store is the only
checkpoint: a killed service loses at most the shard in flight, and
resuming a campaign means running the cells the store does not hold.

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


def run_checkpointed(cells, store, jobs=None, timeout=None):
    """Run one shard and store its ok results; returns
    :class:`~repro.eval.parallel.CellRecord` objects in input order.

    ``store`` is a :class:`~repro.service.store.ResultStore`; every
    harness-``ok`` cell is in it by the time this returns, so work
    finished here survives the caller being killed.
    """
    records = run_cells_recorded(cells, jobs=jobs, timeout=timeout)
    for record in records:
        if record.status == CELL_OK:
            store.put(record.cell, record.status,
                      summarize_outcome(record.outcome), record.error)
    return records
