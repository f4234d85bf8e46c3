"""One pass of each workload, timed from outside, with output checks.

A pass runs every request of a workload once and returns a
:class:`PassResult`: host times, the simulated facts it checked, the
counters the program publishes, and one line per failed check.  Each
request is checked, and host speed probed, between requests, outside
the timed intervals.
"""

import bisect
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

from inputs import BASE_SCALE, cell_key, outcome_record

#: A request slower than this counts as timed out (failed).  Grid cells
#: take under a second and a warm campaign tens of milliseconds on the
#: reference host.
REQUEST_BUDGET_S = 60.0
#: Fewest warm requests a campaign pass makes, however short the run.
MIN_WARM = 10
#: One host-speed probe is a fixed pure-Python loop of this many
#: iterations plus a JSON round trip of :data:`PROBE_DOC`; together
#: they take about 0.7 ms on the reference host.
PROBE_ITERATIONS = 4_000
#: The JSON half exercises the allocator and the json C code, which the
#: warm campaign path leans on and the loop alone does not track.
PROBE_DOC = {"cells": {f"c{i:03d}": {"status": "ok", "cycles": i * 7919,
                                     "cell": {"name": f"w{i}",
                                              "system": "pthreads"}}
                       for i in range(60)}}
#: Host times are reported at the speed where one probe takes this long
#: (about the median probe time on the reference host).
REFERENCE_PROBE_MS = 0.7
#: Probes this close to a measured interval calibrate it.
WINDOW_S = 1.0


class HostSpeed:
    """Host-speed probes interleaved with the measured work.

    The reference host's speed drifts by tens of percent over seconds to
    minutes (co-tenants on a shared machine), which no statistic over a
    30-second run removes.  So the benchmark runs a probe (fixed code
    that is not the program's) after every request and around every
    phase, and reports each measured interval at reference speed: its
    duration times :data:`REFERENCE_PROBE_MS` over the mean probe time
    within :data:`WINDOW_S` of it.  Raw durations are kept and printed
    beside the scaled ones.
    """

    def __init__(self):
        self.times = []            # probe midpoints (perf_counter s)
        self.probe_ms = []

    def probe(self, count=1):
        """Run ``count`` probes and record their CPU times."""
        for _ in range(count):
            start, cpu = time.perf_counter(), time.thread_time()
            total = 0
            for i in range(PROBE_ITERATIONS):
                total += i * i % 7
            json.loads(json.dumps(PROBE_DOC, sort_keys=True))
            self.probe_ms.append((time.thread_time() - cpu) * 1e3)
            self.times.append((start + time.perf_counter()) / 2)

    @contextlib.contextmanager
    def background(self, period=0.1):
        """Probe from a second thread every ``period`` seconds while the
        caller waits on other processes (the campaign's pool).  Probes
        count CPU time, so waiting for a CPU does not read as a slow
        host."""
        stop = threading.Event()

        def loop():
            while not stop.wait(period):
                self.probe()

        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def factor(self, t0, t1):
        """Reference probe time over the mean probe time near
        ``[t0, t1]`` (the nearest probe when none is that near)."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        near = self.probe_ms[lo:hi]
        if not near:
            index = min(range(len(self.times)),
                        key=lambda i: abs(self.times[i] - t0))
            near = [self.probe_ms[index]]
        return REFERENCE_PROBE_MS / statistics.mean(near)

    def scaled(self, t0, t1):
        """The interval's duration in seconds at reference speed."""
        return (t1 - t0) * self.factor(t0, t1)


@dataclass
class PassResult:
    """Timed intervals, checked facts and published counters of a pass.

    Times are raw ``perf_counter`` readings; :class:`HostSpeed` scales
    them.
    """

    start: float
    end: float
    #: ``(t0, t1)`` of every request, in order.
    requests: list
    #: Digest of every checked simulated fact, in request order.
    digest: str
    #: Counters the program publishes, summed over the pass.
    counters: dict
    attempted: int
    failures: list
    #: Simulated data ops of ok cells (grid) or computed cells (cold).
    sim_ops: int = 0
    #: ``(t0, t1)`` of the campaign's cold phase.
    cold: tuple = None
    #: Rendered figure/table name -> sha256 prefix (default seed only).
    texts: dict = field(default_factory=dict)


def sha(data):
    """Short sha256 of a string, or of JSON-encodable data."""
    text = data if isinstance(data, str) else json.dumps(
        data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def render_texts(repair=None, detect=None):
    """Fig 9 / Fig 7 / Table 1 text hashes rendered from finished cells.

    ``repair``/``detect`` map ``{workload: {system: outcome}}``; the
    experiments module renders them through its own code, with its grid
    runner pointed at these outcomes instead of running the cells again.
    """
    from repro.eval import experiments
    grids = {"repair": repair, "detect": detect}
    saved = experiments.run_matrix

    def served(workloads, systems, scale=None, **_):
        return grids["repair" if "manual" in systems else "detect"]

    experiments.run_matrix = served
    try:
        out, fig7, fig9 = {}, None, None
        if repair is not None:
            fig9 = experiments.figure9(scale=BASE_SCALE)
            out["figure9"] = sha(fig9.text)
        if detect is not None:
            fig7 = experiments.figure7(scale=BASE_SCALE)
            out["figure7"] = sha(fig7.text)
        if fig7 is not None and fig9 is not None:
            out["table1"] = sha(experiments.table1(
                figure7_result=fig7, figure9_result=fig9).text)
        return out
    finally:
        experiments.run_matrix = saved


def untraced(_label, fn, *args, **kwargs):
    """A request with no tracer: just the call."""
    return fn(*args, **kwargs)


def _sum_counters(counters, snapshot, result):
    metrics = snapshot["counters"] if snapshot else {}
    report = result.runtime_report if result is not None else {}
    for name, value in (
            ("sim.hitm", result.hitm_total if result else 0),
            ("vector.batched_ops", metrics.get("vector.batched_ops", 0)),
            ("vector.compile_hits", metrics.get("vector.compile_hits", 0)),
            ("vector.compile_misses",
             metrics.get("vector.compile_misses", 0)),
            ("core.commit_bytes", report.get("commit_bytes", 0)),
            ("oskit.perf.records", report.get("perf_records", 0)),
            ("oskit.perf.dropped", report.get("records_dropped", 0))):
        counters[name] = counters.get(name, 0) + value


def grid_pass(cells, reference, speed, run=None, request=None,
              keep=False):
    """Run every cell once through ``run_workload``, checking it and
    probing host speed after each; returns the :class:`PassResult` and
    the outcomes (only when ``keep``: held outcomes grow the heap, and
    the garbage collector's pauses with it).

    ``run``/``request`` default to the plain calls; the traced pass
    passes the tracer's wrappers, so both passes share this code.
    """
    from repro.eval.runner import run_workload
    run = run or run_workload
    request = request or untraced
    clock = time.perf_counter
    kept, intervals, failures, facts, snapshots = [], [], [], [], []
    counters, sim_ops = {"engine.ops": 0}, 0
    speed.probe()
    start = clock()
    for cell in cells:
        t0 = clock()
        try:
            outcome = request("cell", run, collect_metrics=True, **cell)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            outcome = exc
        t1 = clock()
        intervals.append((t0, t1))
        key = cell_key(cell["name"], cell["system"], cell["scale"])
        if isinstance(outcome, Exception):
            failures.append(f"{key}: raised {outcome!r}")
            facts.append([key, repr(outcome)])
            speed.probe()
            continue
        if keep:
            kept.append(outcome)
        record = outcome_record(outcome)
        facts.append([key, record])
        snapshots.append(sha(outcome.metrics))
        if t1 - t0 > REQUEST_BUDGET_S:
            failures.append(f"{key}: took {t1 - t0:.1f} s (budget)")
        expected = reference["statuses"].get(
            f"{cell['name']}|{cell['system']}")
        if outcome.status != expected:
            failures.append(f"{key}: status {outcome.status}, "
                            f"recorded {expected}")
        elif record != reference["cells"].get(key):
            failures.append(f"{key}: simulated {record}, recorded "
                            f"{reference['cells'].get(key)}")
        result = outcome.result
        if result is not None:
            counters["engine.ops"] += result.data_ops
            if outcome.ok:
                sim_ops += result.data_ops
        _sum_counters(counters, outcome.metrics, result)
        del outcome  # freed here, not inside the next cell's interval
        speed.probe()
    end = clock()
    counters["metrics.sha"] = sha(snapshots)
    return PassResult(start=start, end=end, requests=intervals,
                      digest=sha(facts), counters=counters,
                      attempted=len(cells), failures=failures,
                      sim_ops=sim_ops), kept


def grid_texts(cells, outcomes):
    """Figure text hashes of a default-seed grid pass."""
    grid = {}
    for cell, outcome in zip(cells, outcomes):
        grid.setdefault(cell["name"], {})[cell["system"]] = outcome
    if "manual" in {cell["system"] for cell in cells}:
        return render_texts(repair=grid)
    return render_texts(detect=grid)


def campaign_pass(specs, warm_requests, jobs, root, reference, speed,
                  request=None, render=False):
    """A cold request, then ``warm_requests`` warm ones.

    Every request is the traffic of CI's service smoke job: each spec
    spooled into the inbox through ``ServiceClient.submit``, then one
    ``serve(once=True)`` pass of a service with resilience on (the
    ``serve`` command's default), which resumes unfinished campaigns,
    accepts the inbox and runs it.  The service root is fresh, so the
    cold request computes every cell and each warm request is served
    from the store.  ``render`` renders Fig 7, Fig 9 and Table 1 from
    the stored payloads.  Host speed is probed around the cold request
    and, from a second thread, during it (its pool keeps both CPUs
    busy), and after each warm request.
    """
    import asyncio

    from repro.service import CampaignService, ServiceClient
    clock = time.perf_counter
    request = request or untraced
    shutil.rmtree(root, ignore_errors=True)
    service = CampaignService(root=root, jobs=jobs, resilience=True)
    client = ServiceClient(root=root)

    def submit_and_serve():
        ids = [client.submit(spec) for spec in specs]
        return ids, asyncio.run(service.serve(once=True))

    def served(label, ids, done, warm):
        """Failure lines of one request's campaigns."""
        out = []
        if sorted(ids) != sorted(job.id for job in done):
            out.append(f"{label}: served {[job.id for job in done]}, "
                       f"submitted {ids}")
        for job in done:
            if job.status != "completed" \
                    or (warm and job.cache_hit_fraction() != 1.0):
                out.append(f"{label} campaign {job.id}: {job.status}, "
                           f"{job.cache_hit_fraction():.0%} cache hits")
        return out

    failures = []
    speed.probe(20)
    start = clock()
    try:
        with speed.background():
            ids, cold = request("cold", submit_and_serve)
        failures += served("cold", ids, cold, warm=False)
    except Exception as exc:  # noqa: BLE001 - counted as a failure
        ids, cold = [], []
        failures.append(f"cold request raised {exc!r}")
    cold_end = clock()
    speed.probe(20)
    intervals = []
    for index in range(warm_requests):
        t0 = clock()
        try:
            warm_ids, done = request("warm", submit_and_serve)
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            warm_ids, done = [], []
            failures.append(f"warm request {index}: raised {exc!r}")
        t1 = clock()
        intervals.append((t0, t1))
        if t1 - t0 > REQUEST_BUDGET_S:
            failures.append(f"warm request {index}: took "
                            f"{t1 - t0:.1f} s (budget)")
        failures += served(f"warm request {index}", warm_ids, done,
                           warm=True)
        del done  # freed here, not inside the next request's interval
        speed.probe()
    end = clock()

    stats = service.store.stats()
    by_id = {job.id: job for job in cold}
    counts = [job.counts() for job in cold]
    counters = {
        "store.hits": stats["hits"], "store.misses": stats["misses"],
        "store.evictions": stats["evictions"],
        "store.entries": stats["entries"],
        "campaign.executed": sum(c["executed"] for c in counts),
        "campaign.retried": sum(c["retried"] for c in counts),
        "campaign.failed": sum(c["failed"] for c in counts),
        "campaign.timeout": sum(c["timeout"] for c in counts),
        "service.retries": service.metrics_snapshot()["counters"].get(
            "service.retry", 0),
        "service.quarantined": len(
            service.resilience.quarantine.digests()),
    }
    facts, grids, seen, sim_ops = [], {}, set(), 0
    for spec, campaign_id in zip(specs, ids):
        grid = grids.setdefault(
            "repair" if "manual" in spec.systems else "detect", {})
        if campaign_id not in by_id:
            continue  # reported by served()
        for item in service.results(campaign_id):
            cell = item["cell"]
            key = cell_key(cell["name"], cell["system"], cell["scale"])
            payload = item["result"] or {}
            summary = payload.get("summary") or {}
            got = [item["status"], summary.get("workload"),
                   summary.get("system"), summary.get("status"),
                   summary.get("cycles")]
            facts.append([key, got])
            grid.setdefault(cell["name"], {})[cell["system"]] = \
                SimpleNamespace(status=got[3], ok=got[3] == "ok",
                                result=SimpleNamespace(
                                    cycles=got[4], runtime_report={}))
            if key in seen:
                continue
            seen.add(key)
            ref = reference["cells"].get(key) or [None, None]
            if got != ["ok", cell["name"], cell["system"], ref[0],
                       ref[1]]:
                failures.append(f"{key}: stored {got}, direct run "
                                f"{ref[:2]}")
            elif ref[0] == "ok":
                sim_ops += ref[4]
    texts = {}
    if render:
        try:
            texts = render_texts(repair=grids.get("repair"),
                                 detect=grids.get("detect"))
        except Exception as exc:  # noqa: BLE001 - a failed check
            failures.append(f"rendering raised {exc!r}")
    shutil.rmtree(root, ignore_errors=True)
    return PassResult(start=start, end=end, requests=intervals,
                      digest=sha(facts), counters=counters,
                      attempted=len(seen) + len(intervals),
                      failures=failures, sim_ops=sim_ops,
                      cold=(start, cold_end), texts=texts)


def service_root(base, label):
    """A fresh, process-private service root under ``base``."""
    return os.path.join(base, f"service-{os.getpid()}-{label}")
