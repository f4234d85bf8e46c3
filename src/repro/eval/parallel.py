"""Parallel execution of independent (workload, system) grid cells.

Every cell of an experiment grid is an isolated simulation: one
:class:`~repro.sim.machine.Machine`, one engine, one runtime, built
from scratch inside ``run_workload``.  Nothing is shared between cells,
so fanning them out across worker *processes* cannot perturb results —
each worker computes exactly the bytes the serial loop would have, and
the parent reassembles them in the caller's order.

Worker count comes from ``REPRO_JOBS`` (default ``os.cpu_count()``;
a malformed value warns and pins serial execution).  ``REPRO_JOBS=1``
— or any pool failure, e.g. a sandbox that forbids fork — falls back
to the serial in-process loop, which is also the configuration to use
when bisecting determinism bugs.

The grid is hardened against worker failure
(:func:`run_cells_recorded`), with one failure policy for pooled and
serial runs alike.  A cell that blows past its wall-clock timeout is
recorded as ``timeout`` instead of wedging the experiment.  A cell
whose attempt raised is replayed exactly once, serially in the parent:
every cell is a deterministic simulation, so the replay tells a
harness fault (it succeeds) from a poison cell (it raises again).  A
:class:`~concurrent.futures.process.BrokenProcessPool` (a worker
segfaulted or was OOM-killed) no longer aborts the grid: the cells the
pool never finished run in the parent, surfaced with ``retried=True``.
That recovery is not a replay; a recovered cell that raises gets its
one replay like any other.
"""

import os
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass

#: Cell-record statuses (harness-level, distinct from RunOutcome.status:
#: a simulated hang is still a *harness*-ok cell).
CELL_OK = "ok"
CELL_FAILED = "failed"
CELL_TIMEOUT = "timeout"


def job_count(jobs=None):
    """Resolve the worker count: explicit arg > REPRO_JOBS > cpu count.

    A malformed ``REPRO_JOBS`` pins serial execution (``1``) and warns
    — silent degradation to a surprise worker count hid real
    configuration mistakes.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                warnings.warn(
                    f"REPRO_JOBS={env!r} is not an integer; running "
                    "serially (jobs=1)", RuntimeWarning, stacklevel=2)
                jobs = 1
        else:
            jobs = os.cpu_count() or 1
    return max(1, jobs)


@dataclass
class CellRecord:
    """Harness-level outcome of one grid cell.

    ``status`` is ``ok`` (the cell returned a
    :class:`~repro.eval.runner.RunOutcome` — which may itself report a
    simulated hang or failure), ``failed`` (the cell raised on its
    attempt and again on its replay; ``error`` carries both), or
    ``timeout`` (the cell exceeded its wall-clock budget).
    ``retried`` marks cells that ran again in the parent, after a
    raise or a dead worker; ``replayed`` marks the ones that ran again
    because their attempt raised.
    """

    cell: dict
    status: str
    outcome: object = None
    retried: bool = False
    replayed: bool = False
    error: str = ""


def _run_cell(kwargs):
    # imported here so worker processes resolve it after fork/spawn
    from repro.eval.runner import run_workload
    if os.environ.get("REPRO_HARNESS_FAULTS"):
        # chaos seam (see repro.faults.harness): may raise a poison
        # failure or hard-exit a pool worker before the workload runs
        from repro.faults.harness import active_plan
        plan = active_plan()
        if plan is not None:
            plan.apply(kwargs)
    return run_workload(**kwargs)


def _run_serial(cell, retried=False):
    """Run one cell in-process, capturing any exception as a record."""
    try:
        outcome = _run_cell(cell)
    except Exception as exc:  # noqa: BLE001 - harness boundary
        return CellRecord(cell=dict(cell), status=CELL_FAILED,
                          retried=retried,
                          error=f"{type(exc).__name__}: {exc}")
    return CellRecord(cell=dict(cell), status=CELL_OK, outcome=outcome,
                      retried=retried)


def _run_pooled(cells, jobs, timeout):
    """One attempt per cell across a process pool.

    Returns records in input order, with None for the cells a dead
    worker never finished; returns None when no pool can be created
    (restricted environments), so the caller runs everything serially.
    """
    try:
        pool = ProcessPoolExecutor(max_workers=jobs)
        futures = [pool.submit(_run_cell, cell) for cell in cells]
    except (OSError, PermissionError):
        return None
    records = [None] * len(cells)
    timed_out = False
    try:
        for index, (cell, future) in enumerate(zip(cells, futures)):
            try:
                outcome = future.result(timeout=timeout)
            except _FutureTimeout:
                future.cancel()
                timed_out = True
                records[index] = CellRecord(
                    cell=dict(cell), status=CELL_TIMEOUT,
                    error=f"exceeded {timeout}s wall-clock budget")
            except BrokenExecutor:
                break  # the pool is gone; the rest stay None
            except Exception as exc:  # noqa: BLE001 - worker raised
                records[index] = CellRecord(
                    cell=dict(cell), status=CELL_FAILED,
                    error=f"{type(exc).__name__}: {exc}")
            else:
                records[index] = CellRecord(cell=dict(cell),
                                            status=CELL_OK,
                                            outcome=outcome)
    finally:
        # don't block on a wedged worker: timed-out cells may still be
        # burning CPU inside it
        pool.shutdown(wait=not timed_out, cancel_futures=True)
    return records


def run_cells_recorded(cells, jobs=None, timeout=None):
    """Run every cell, never abort the grid; returns
    :class:`CellRecord` objects in input order.

    ``timeout`` (seconds of host wall-clock, pooled execution only)
    bounds each cell from the moment the parent starts waiting on it;
    a cell that exceeds it is recorded as ``timeout`` and is *not*
    re-run (it would exceed the budget serially too).  Cells a dead
    worker never finished run in the parent (``retried=True``).  A
    cell whose attempt raised is replayed exactly once, serially in
    the parent (``retried`` and ``replayed``); if the replay raises
    too, the cell is ``failed`` with both errors.
    """
    cells = list(cells)
    jobs = min(job_count(jobs), len(cells))
    pooled = _run_pooled(cells, jobs, timeout) if jobs > 1 else None
    records = []
    for index, cell in enumerate(cells):
        record = pooled[index] if pooled is not None else None
        if record is None:
            # a serial run, or a cell lost with a dead worker
            record = _run_serial(cell, retried=pooled is not None)
        if record.status == CELL_FAILED:
            replay = _run_serial(cell, retried=True)
            replay.replayed = True
            if replay.status == CELL_FAILED:
                replay.error = f"{record.error}; replay: {replay.error}"
            record = replay
        records.append(record)
    return records


def run_cells(cells, jobs=None, timeout=None):
    """Run ``run_workload(**cell)`` for every cell; returns outcomes in
    input order.

    ``cells`` is a sequence of keyword dicts for
    :func:`repro.eval.runner.run_workload`.  With ``jobs > 1`` the cells
    execute across a :class:`ProcessPoolExecutor`; the outcomes (and
    every simulated cycle/HITM count inside them) are identical to the
    serial loop's.  A broken pool is recovered by re-running only the
    unfinished cells serially; a cell that fails its replay (or times
    out) raises — callers wanting per-cell failure records use
    :func:`run_cells_recorded`.
    """
    records = run_cells_recorded(cells, jobs=jobs, timeout=timeout)
    for record in records:
        if record.status != CELL_OK:
            raise RuntimeError(
                f"grid cell {record.cell!r} {record.status}: "
                f"{record.error}")
    return [record.outcome for record in records]
