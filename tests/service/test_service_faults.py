"""Campaign fault tolerance: worker death, timeouts, partial resume.

The fault cell below misbehaves only in *child* processes (same
convention as ``tests/eval/test_parallel_hardening.py``), keyed off
the workload name so real :class:`CampaignSpec` cells can trigger it:
``histogramfs`` kills its worker (BrokenProcessPool), ``lreg`` sleeps
past the cell budget.  ``REPRO_FAULT_FIXED`` turns the faults off —
the "operator fixed it, resubmit" half of the resume tests — and
every invocation appends to a per-workload run log so the tests can
prove which cells actually re-executed, and to a ``pids`` log so they
can tell which process ran each cell.
"""

import asyncio
import multiprocessing
import os
import time

import pytest

from repro.eval import parallel
from repro.service import (COMPLETED, FAILED, CampaignService,
                           CampaignSpec, ResilienceSupervisor,
                           ServiceClient, cell_digest)
from repro.service import scheduler as scheduler_mod

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fault fixture needs fork-inherited monkeypatching")

_MAIN_PID = os.getpid()


def _fault_cell(cell):
    logdir = os.environ.get("REPRO_FAULT_LOG")
    if logdir:
        with open(os.path.join(logdir, cell["name"]), "a") as fh:
            fh.write("x")
        with open(os.path.join(logdir, "pids"), "a") as fh:
            fh.write(f"{cell['name']} {cell['system']} {os.getpid()}\n")
    in_child = os.getpid() != _MAIN_PID
    if in_child and not os.environ.get("REPRO_FAULT_FIXED"):
        if cell["name"] == "histogramfs":
            os._exit(3)              # simulated segfaulted worker
        if cell["name"] == "lreg":
            time.sleep(6)            # blows the cell budget
    return {"workload": cell["name"], "ran": True}


@pytest.fixture
def fault_pool(monkeypatch, tmp_path):
    monkeypatch.setattr(parallel, "_run_cell", _fault_cell)
    logdir = tmp_path / "runlog"
    logdir.mkdir()
    monkeypatch.setenv("REPRO_FAULT_LOG", str(logdir))
    monkeypatch.delenv("REPRO_FAULT_FIXED", raising=False)
    return logdir


def runs(logdir, name):
    try:
        return len(open(logdir / name).read())
    except OSError:
        return 0


def pids(logdir):
    """``{(workload, system): [pid, ...]}``, one pid per run."""
    out = {}
    try:
        lines = open(logdir / "pids").read().split("\n")
    except OSError:
        return out
    for line in filter(None, lines):
        name, system, pid = line.split()
        out.setdefault((name, system), []).append(int(pid))
    return out


def spec_of(*workloads, systems=("pthreads",)):
    return CampaignSpec(workloads=workloads, systems=systems,
                        scale=0.05)


#: Workloads the fault cell runs cleanly, to fill campaigns past one
#: pool window.
FILLER = ("histogram", "reverse", "kmeans", "pca", "stringmatch",
          "wordcount", "matrix", "blackscholes", "canneal", "dedup")

#: Cells in flight at ``jobs=2``.
WINDOW = parallel.WINDOW_PER_JOB * 2


def _pid_cell(cell):
    return os.getpid()


def record_spy(monkeypatch):
    """The list every record the scheduler's checkpoint step returns
    is appended to."""
    records, real = [], scheduler_mod.run_checkpointed

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        records.extend(out)
        return out
    monkeypatch.setattr(scheduler_mod, "run_checkpointed", spy)
    return records


class TestOnePoolPerServePass:
    def test_two_campaigns_share_one_pool(self, monkeypatch, tmp_path):
        """A serve pass forks ``jobs`` workers once, at its first
        miss, however many campaigns and cells it runs."""
        monkeypatch.setattr(parallel, "_run_cell", _pid_cell)
        records = record_spy(monkeypatch)
        service = CampaignService(root=str(tmp_path / "svc"), jobs=2)
        client = ServiceClient(service.root)
        client.submit(spec_of("histogram", "reverse", "kmeans",
                              systems=("pthreads", "tmi-protect",
                                       "laser")), "nine")
        client.submit(spec_of(*FILLER[3:8]), "five")
        done = asyncio.run(service.serve(once=True))
        assert sorted(job.status for job in done) == [COMPLETED] * 2
        assert len(records) == 14
        assert not any(record.retried for record in records)
        workers = {record.outcome for record in records}
        assert _MAIN_PID not in workers
        assert len(workers) <= 2


class TestCheckpoint:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_collected_cells_survive_a_crash(self, fault_pool,
                                             tmp_path, monkeypatch,
                                             jobs):
        """Each ok cell is stored as it is collected: when the service
        dies on the 3rd record, the store holds exactly the cells
        collected so far, and a resubmission runs only the rest."""
        collected, classify = [], ResilienceSupervisor.classify

        def crash_on_third(self, job, digest, record):
            collected.append(record.cell)
            if len(collected) == 3:
                raise RuntimeError("supervisor crashed")
            return classify(self, job, digest, record)
        monkeypatch.setattr(ResilienceSupervisor, "classify",
                            crash_on_third)
        service = CampaignService(root=str(tmp_path / "svc"), jobs=jobs)
        spec = spec_of(*FILLER[:9])
        with pytest.raises(RuntimeError, match="supervisor crashed"):
            service.run_spec(spec, campaign_id="ckpt-1")
        assert service.status("ckpt-1")["status"] == "running"
        stored = [cell for cell in spec.cells()
                  if service.store.get(cell_digest(cell)) is not None]
        assert stored == spec.cells()[:3] == collected

        monkeypatch.setattr(ResilienceSupervisor, "classify", classify)
        before = sum(runs(fault_pool, name) for name in FILLER)
        job = service.run_spec(spec, campaign_id="ckpt-1")
        assert job.status == COMPLETED
        assert job.counts()["cache_hits"] == 3
        assert job.counts()["executed"] == 6
        after = sum(runs(fault_pool, name) for name in FILLER)
        # the six cells the store lacked ran once each; at jobs=2 the
        # crashed pass may also have started cells it never collected
        assert after - before == 6


class TestWorkerCrash:
    def test_broken_pool_cell_retried_to_completion(self, fault_pool,
                                                    tmp_path):
        service = CampaignService(root=str(tmp_path / "svc"), jobs=2)
        job = service.run_spec(spec_of("histogram", "histogramfs"),
                               campaign_id="crash-1")
        # the dead worker broke the pool mid-campaign; the harness
        # re-ran the affected cells serially in the parent (where the
        # fault cell behaves), so the campaign still completes
        assert job.status == COMPLETED
        counts = job.counts()
        assert counts["ok"] == counts["total"] == 2
        assert counts["retried"] >= 1
        by_name = {e["cell"]["name"]: e for e in job.cells.values()}
        assert by_name["histogramfs"]["retried"]
        state = service.status("crash-1")
        assert state["counts"]["retried"] == counts["retried"]

    def test_recovery_is_recorded_retried_not_replayed(self,
                                                       fault_pool,
                                                       tmp_path):
        service = CampaignService(root=str(tmp_path / "svc"), jobs=2)
        service.run_spec(spec_of("histogram", "histogramfs"),
                         campaign_id="crash-3")
        state = service.status("crash-3")
        by_name = {e["cell"]["name"]: e
                   for e in state["cells"].values()}
        assert by_name["histogramfs"]["retried"] is True
        assert by_name["histogramfs"]["replayed"] is False

    def test_crash_loses_at_most_the_cells_in_flight(self, fault_pool,
                                                     tmp_path):
        """A dead worker costs the window in flight, run again in the
        parent; the cells after it run on a fresh pool."""
        service = CampaignService(root=str(tmp_path / "svc"), jobs=2)
        spec = spec_of("histogram", "histogramfs", *FILLER[1:6],
                       systems=("pthreads", "tmi-protect"))
        cells = [(c["name"], c["system"]) for c in spec.cells()]
        assert len(cells) > WINDOW
        job = service.run_spec(spec, campaign_id="crash-2")
        assert job.status == COMPLETED
        assert job.counts()["ok"] == len(cells)
        retried = [cells.index((e["cell"]["name"], e["cell"]["system"]))
                   for e in job.cells.values() if e["retried"]]
        assert 1 <= len(retried) <= WINDOW
        assert retried == list(range(min(retried), max(retried) + 1))

        ran = pids(fault_pool)
        assert all(ran[cells[i]][-1] == _MAIN_PID for i in retried)
        dead = {pid for system in ("pthreads", "tmi-protect")
                for pid in ran[("histogramfs", system)]
                if pid != _MAIN_PID}
        before = {ran[cell][0] for cell in cells[:min(retried)]}
        later = {ran[cell][0] for cell in cells[max(retried) + 1:]}
        assert dead and later
        assert _MAIN_PID not in later
        assert later.isdisjoint(dead | before)


class TestTimeout:
    def test_slow_cell_classified_and_campaign_failed(self,
                                                      fault_pool,
                                                      tmp_path):
        service = CampaignService(root=str(tmp_path / "svc"), jobs=2,
                                  timeout=0.75)
        job = service.run_spec(spec_of("histogram", "lreg"),
                               campaign_id="slow-1")
        assert job.status == FAILED
        counts = job.counts()
        assert counts["ok"] == 1 and counts["timeout"] == 1
        by_name = {e["cell"]["name"]: e for e in job.cells.values()}
        assert by_name["lreg"]["status"] == "timeout"
        assert not by_name["lreg"]["retried"]  # budget, not flakiness
        # a timed-out cell must never be served from the cache later
        (lreg_cell,) = spec_of("lreg").cells()
        assert service.store.get(cell_digest(lreg_cell)) is None

    def test_later_misses_run_on_a_fresh_pool(self, fault_pool,
                                              tmp_path):
        """The wedged worker's pool is discarded: the cells after the
        timed-out one complete ok on new workers."""
        service = CampaignService(root=str(tmp_path / "svc"), jobs=2,
                                  timeout=0.75)
        spec = spec_of("lreg", *FILLER)
        job = service.run_spec(spec, campaign_id="slow-3")
        assert job.status == FAILED
        counts = job.counts()
        assert counts["timeout"] == 1
        assert counts["ok"] == len(FILLER)
        assert counts["retried"] == 0
        ran = pids(fault_pool)
        # the wedged pool's workers: the sleeper's and its neighbour's
        wedged = {ran[("lreg", "pthreads")][0],
                  ran[(FILLER[0], "pthreads")][0]}
        later = {ran[(name, "pthreads")][0]
                 for name in FILLER[WINDOW - 1:]}
        assert later and _MAIN_PID not in wedged | later
        assert later.isdisjoint(wedged)

    def test_resubmit_reexecutes_only_the_unfinished_cell(
            self, fault_pool, tmp_path, monkeypatch):
        service = CampaignService(root=str(tmp_path / "svc"), jobs=2,
                                  timeout=0.75)
        spec = spec_of("histogram", "lreg")
        first = service.run_spec(spec, campaign_id="slow-2")
        assert first.status == FAILED
        histogram_runs = runs(fault_pool, "histogram")
        lreg_runs = runs(fault_pool, "lreg")

        # operator fixes the slow cell and resubmits the same id: the
        # campaign resumes from its state file, and only the cell that
        # never finished goes back to the pool
        monkeypatch.setenv("REPRO_FAULT_FIXED", "1")
        second = service.run_spec(spec, campaign_id="slow-2")
        assert second.status == COMPLETED
        assert second.counts()["ok"] == 2
        assert runs(fault_pool, "histogram") == histogram_runs
        assert runs(fault_pool, "lreg") == lreg_runs + 1


class TestRestartRecovery:
    def test_killed_service_resumes_interrupted_campaign(
            self, fault_pool, tmp_path, monkeypatch):
        """A service that died mid-campaign finishes it on restart."""
        root = str(tmp_path / "svc")
        first = CampaignService(root=root, jobs=2, timeout=0.75)
        job = first.run_spec(spec_of("histogram", "lreg"),
                             campaign_id="died-1")
        assert job.status == FAILED      # the "crash": left unfinished
        histogram_runs = runs(fault_pool, "histogram")

        # mark it non-terminal, as a mid-run crash would leave it
        job.status = "running"
        job.write_state()

        monkeypatch.setenv("REPRO_FAULT_FIXED", "1")
        revived = CampaignService(root=root, jobs=2, timeout=0.75)
        assert "died-1" in revived.incomplete_campaigns()
        done = asyncio.run(revived.serve(once=True))
        assert "died-1" in [j.id for j in done]
        assert revived.status("died-1")["status"] == COMPLETED
        assert runs(fault_pool, "histogram") == histogram_runs
