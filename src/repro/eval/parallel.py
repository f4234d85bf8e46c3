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
segfaulted or was OOM-killed) no longer aborts the grid: the cells in
flight on the dead pool run in the parent, surfaced with
``retried=True``, and later cells go to a fresh pool.  That recovery
is not a replay; a recovered cell that raises gets its one replay like
any other.

Cells stream through a :class:`CellPool`: at most ``4 x jobs`` are in
flight, they are collected in input order, and the next cell is
submitted as each one is collected, so no worker waits for a batch's
slowest cell.  A caller that runs many grids in a row (the campaign
service's serve pass) keeps one pool open across them; every other
call forks its own and closes it before returning.
"""

import os
import warnings
from collections import deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from dataclasses import dataclass

#: Cell-record statuses (harness-level, distinct from RunOutcome.status:
#: a simulated hang is still a *harness*-ok cell).
CELL_OK = "ok"
CELL_FAILED = "failed"
CELL_TIMEOUT = "timeout"

#: Cells in flight per worker: submitted ahead of the one the parent is
#: collecting, so a worker never idles while the parent catches up.
#: On the Table 1 cold request 4 beat both 2 and an unbounded window.
WINDOW_PER_JOB = 4


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


class CellPool:
    """A worker pool forked at its first cell and reused until closed.

    ``jobs`` workers (:func:`job_count`), at most :attr:`window` cells
    in flight.  One job never forks, and neither does a pool the host
    refuses to fork (a sandbox): :meth:`submit` returns None and the
    caller runs the cell itself.  A pool that lost a worker or holds a
    cell past its budget is discarded, and the next cell forks a fresh
    one.  Use it as a context manager, or call :meth:`close`.
    """

    def __init__(self, jobs=None):
        self.jobs = job_count(jobs)
        self.window = WINDOW_PER_JOB * self.jobs
        self._executor = None

    def submit(self, cell):
        """A future running ``cell`` in a worker, or None when the
        caller must run it (one job, or no pool could be forked)."""
        if self.jobs == 1:
            return None
        try:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs)
            return self._executor.submit(_run_cell, cell)
        except OSError:
            self.discard()
            self.jobs = 1
            return None

    def discard(self, wait=False):
        """Shut the current pool down, cancelling the cells it has not
        started; the next cell forks a fresh one.  By default this does
        not wait for the workers: one may be dead or wedged."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)

    def close(self):
        """Shut the current pool down and wait for its workers."""
        self.discard(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _settled(future):
    """Whether ``future`` holds a result or an exception to collect."""
    return future is None or (future.done() and not future.cancelled())


def _stream(cells, pool, timeout):
    """Yield one attempt record per cell, in input order.

    Keeps up to ``pool.window`` cells in flight and submits the next
    cell as each is collected; cells the pool does not take run here.
    When a worker dies, every cell in flight runs here, ``retried``.
    When a cell times out, the unfinished cells in flight start over on
    a fresh pool instead of queueing behind the wedged worker.
    """
    flight = deque()  # a future per uncollected cell; None = lost
    submitted = 0
    for index, cell in enumerate(cells):
        while submitted < len(cells) and len(flight) < pool.window:
            try:
                future = pool.submit(cells[submitted])
            except BrokenExecutor:  # a worker died since we last looked
                pool.discard()
                flight = deque([None] * len(flight))
                continue
            if future is None:
                break
            flight.append(future)
            submitted += 1
        if index == submitted:  # serial, or no pool could be forked
            submitted += 1
            yield _run_serial(cell)
            continue
        future, record = flight.popleft(), None
        if future is not None:
            try:
                record = CellRecord(cell=dict(cell), status=CELL_OK,
                                    outcome=future.result(timeout))
            except _FutureTimeout:
                pool.discard()
                record = CellRecord(
                    cell=dict(cell), status=CELL_TIMEOUT,
                    error=f"exceeded {timeout}s wall-clock budget")
                flight = deque(
                    f if _settled(f) else pool.submit(cells[position])
                    for position, f in enumerate(flight, index + 1))
            except BrokenExecutor:
                pool.discard()
                flight = deque([None] * len(flight))
            except Exception as exc:  # noqa: BLE001 - worker raised
                record = CellRecord(
                    cell=dict(cell), status=CELL_FAILED,
                    error=f"{type(exc).__name__}: {exc}")
        if record is None:  # lost with a dead worker
            record = _run_serial(cell, retried=True)
        yield record


def run_cells_recorded(cells, jobs=None, timeout=None, pool=None,
                       on_record=None):
    """Run every cell, never abort the grid; returns
    :class:`CellRecord` objects in input order.

    ``pool`` is a :class:`CellPool` the caller keeps open across calls
    (its ``jobs`` then win); without one, the call forks its own, with
    at most one worker per cell, and closes it before returning.
    ``on_record(record)`` sees each record as soon as it is final,
    before the next cell is collected.

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
    own = pool is None
    if own:
        pool = CellPool(min(job_count(jobs), len(cells)))
    records = []
    try:
        for cell, record in zip(cells, _stream(cells, pool, timeout)):
            if record.status == CELL_FAILED:
                replay = _run_serial(cell, retried=True)
                replay.replayed = True
                if replay.status == CELL_FAILED:
                    replay.error = (f"{record.error}; replay: "
                                    f"{replay.error}")
                record = replay
            if on_record is not None:
                on_record(record)
            records.append(record)
    finally:
        if own:
            pool.close()
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
