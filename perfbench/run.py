"""The repository benchmark: the paper's grids and a cold/warm campaign.

Run from the repository root::

    python3 perfbench/run.py --workload repair-grid --seed 0 \\
        --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another, each in
its own process, and exits non-zero unless every one was correct.

Workloads (closed loop, one client; see NOTES.md for why each exists):

- ``repair-grid``: the Fig 9 cells (9 workloads x 5 systems), serially;
- ``detect-grid``: the Fig 7 cells (35 workloads x 4 systems), serially;
- ``campaign``: both grids as two campaign specs, submitted to a fresh
  service root the way CI's service smoke job does (``ServiceClient.
  submit`` per spec, then ``serve(once=True)``): once cold, then
  resubmitted back to back (each warm request resubmits both specs).

``--trace 0`` times untraced passes and prints the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass over the same inputs
and prints the per-layer metrics.  Metric names and units come from
``BENCHMARK.json``.  Human-readable lines come first; the last line of
stdout is one JSON object ``{correct, attempted, failed, metrics}``.
Every pass checks its outputs against ``reference.json``; a failed check
counts in ``failed`` and makes ``correct`` false.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: service roots, span traces.
WORK = os.path.join(ROOT, ".perfbench")
sys.path.insert(1, SRC)

from inputs import (DEFAULT_SEED, campaign_specs,  # noqa: E402
                    grid_cells, load_reference)
from passes import (MIN_WARM, HostSpeed, campaign_pass,  # noqa: E402
                    grid_pass, grid_texts, service_root)

WORKLOADS = ("repair-grid", "detect-grid", "campaign")
#: Nominal host seconds on the 2-core reference host, used only to size
#: a run to ``--seconds``: one grid pass, the cold campaign request, and
#: the mean warm request of a 30-s run (warm latency grows with every
#: earlier submission, so the mean depends on the run length).
GRID_PASS_S = 9.5
COLD_S = 12.0
WARM_REQUEST_S = 0.09
#: Fresh processes whose set-up time is measured; the median is setup_s.
SETUP_PROBES = 5
#: Candidate tail percentiles, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def pool_jobs():
    """Campaign worker count: the usable CPUs, at most 4."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def setup(workload, seed):
    """Everything before the first timed request: imports, inputs and,
    for the campaign, a service root.  Returns ``(reference, inputs)``."""
    import numpy  # noqa: F401
    import repro.engine.vector.executor  # noqa: F401
    import repro.eval.experiments  # noqa: F401
    import repro.eval.runner  # noqa: F401
    from repro.service import CampaignService
    reference = load_reference()
    if workload != "campaign":
        return reference, grid_cells(workload.split("-")[0], seed)
    root = service_root(WORK, "setup")
    CampaignService(root=root, jobs=pool_jobs(), resilience=True)
    shutil.rmtree(root)
    return reference, campaign_specs(seed)


def measure_setup(workload, seed, speed):
    """``(t0, t1)`` of :data:`SETUP_PROBES` fresh processes, each from
    spawn until it is ready for its first request, with host-speed
    probes around each."""
    intervals = []
    for _ in range(SETUP_PROBES):
        speed.probe(10)
        start = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__),
                 "--probe-setup", "--workload", workload,
                 "--seed", str(seed)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            intervals.append((start, time.perf_counter()))
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
        speed.probe(10)
    return intervals


def tail(latencies):
    """``(percentile, value)``: the highest percentile with at least ten
    requests beyond it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10 or p == PERCENTILES[-1]:
            rank = max(1, -(-p * n // 100))
            return p, ordered[int(rank) - 1]


def run_passes(workload, seed, reference, inputs, seconds, speed,
               single=False, tracer=None):
    """Passes sized to ``seconds``, or exactly one full pass when
    ``single`` (the traced run's pair); ``tracer`` records spans.

    The amount of work depends on ``seconds`` only, never on how fast
    the host or the program runs, so a slower commit runs the same
    requests as its parent and its times show the whole slowdown.
    """
    request = tracer.request if tracer else None
    render = seed == DEFAULT_SEED and tracer is None
    if workload == "campaign":
        warm = max(MIN_WARM, round((seconds - COLD_S) / WARM_REQUEST_S))
        return [campaign_pass(
            inputs, warm, pool_jobs(), service_root(WORK, "pass"),
            reference, speed, request=request, render=render)]
    run = None
    if tracer:
        from repro.eval.runner import run_workload
        run = tracer.traced("eval.runner", run_workload)
    passes = []
    count = 1 if single else max(1, round(seconds / GRID_PASS_S))
    for index in range(count):
        result, outcomes = grid_pass(inputs, reference, speed, run=run,
                                     request=request,
                                     keep=index == 0 and render)
        if index == 0 and render:
            try:
                result.texts = grid_texts(inputs, outcomes)
            except Exception as exc:  # noqa: BLE001 - a failed check
                result.failures.append(f"rendering raised {exc!r}")
        passes.append(result)
    return passes


def pass_checks(workload, seed, reference, passes):
    """Checks over whole passes: ``(checks made, failure lines)``."""
    failures = []
    checks = 1
    first = passes[0]
    for other in passes[1:]:
        checks += 1
        if (other.digest, other.counters) != (first.digest,
                                              first.counters):
            failures.append("passes disagree on simulated facts or "
                            "published counters")
    recorded = reference["passes"][workload].get(str(seed))
    if recorded is not None:
        checks += 1
        if first.digest != recorded:
            failures.append(f"pass digest {first.digest}, recorded "
                            f"{recorded} for seed {seed}")
    if seed == DEFAULT_SEED:
        checks += 1
        expected = reference["texts"][workload]
        if first.texts != expected:
            failures.append(f"rendered text hashes {first.texts}, "
                            f"recorded {expected}")
    if not first.requests:
        failures.append("no request completed")
    return checks, failures


def pass_seconds(result, speed=None):
    """Host seconds of a pass: its requests (and cold phase) back to
    back, without the probes and checks between them; at reference
    speed when ``speed`` is given."""
    intervals = result.requests + ([result.cold] if result.cold else [])
    if speed is None:
        return sum(t1 - t0 for t0, t1 in intervals)
    return sum(speed.scaled(t0, t1) for t0, t1 in intervals)


def end_to_end(workload, passes, speed, setup, rss_mb):
    """The end-to-end metrics of an untraced run, plus report lines.

    Host times are at reference speed (see :class:`passes.HostSpeed`);
    the report lines give the raw ones too.
    """
    latencies = [speed.scaled(*r) * 1e3 for p in passes
                 for r in p.requests]
    percentile, tail_ms = tail(latencies)
    walls = [pass_seconds(p, speed) for p in passes]
    wall_s = statistics.median(walls)
    if workload == "campaign":
        cold = passes[0].cold
        cold_s = speed.scaled(*cold)
        ops_per_s = passes[0].sim_ops / cold_s
        extra = [f"cold_s raw: {cold[1] - cold[0]:.3f}"]
    else:
        # no result is reused between grid passes: every pass is cold
        cold_s = wall_s
        ops_per_s = statistics.median(p.sim_ops / w
                                      for p, w in zip(passes, walls))
        extra = []
    setup_s = [speed.scaled(*r) for r in setup]
    metrics = {
        "wall_s": wall_s,
        "sim_ops_per_s": ops_per_s,
        "req_p50_ms": statistics.median(latencies),
        "req_tail_ms": tail_ms,
        "cold_s": cold_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss_mb,
    }
    notes = [f"passes: {len(passes)}, requests: {len(latencies)}, "
             f"req_tail_ms is p{percentile:g} of {len(latencies)}",
             "pass wall_s raw: " + ", ".join(
                 f"{pass_seconds(p):.3f}" for p in passes)
             + "; at reference speed: " + ", ".join(
                 f"{w:.3f}" for w in walls),
             "setup_s raw: " + ", ".join(f"{t1 - t0:.3f}"
                                         for t0, t1 in setup)
             + "; at reference speed: " + ", ".join(
                 f"{t:.3f}" for t in setup_s),
             "host speed (reference probe ms / probe ms) per pass: "
             + ", ".join(f"{speed.factor(p.start, p.end):.3f}"
                         for p in passes)] + extra
    return metrics, notes


def layer_metrics(tracer, traced, untraced, speed):
    """The per-layer metrics of a traced run; times at reference speed
    (the traced pass's host-speed factor)."""
    totals = tracer.totals()
    zero = [0, 0.0, 0, 0.0]
    scale = speed.factor(traced.start, traced.end) * 1e3

    def calls(key):
        return totals.get(key, zero)[0]

    def self_ms(key):
        return totals.get(key, zero)[1] * scale

    def ratio(num, den):
        return num / den if den else 0.0

    counters = traced.counters
    ops = counters.get("engine.ops", 0)
    stretch = totals.get("engine.vector.stretch", zero)
    lockstep = totals.get("engine.vector.lockstep", zero)
    attempts = stretch[0] + lockstep[0]
    batches = stretch[2] + lockstep[2]
    batch_ms = (stretch[3] + lockstep[3]) * scale
    hits = counters.get("vector.compile_hits", 0)
    misses = counters.get("vector.compile_misses", 0)
    store_hits = counters.get("store.hits", 0)
    store_misses = counters.get("store.misses", 0)
    warm = [speed.scaled(*r) for r in untraced.requests]
    quarter = len(warm) // 4
    growth = 0.0
    if untraced.cold and quarter:
        growth = (statistics.median(warm[-quarter:])
                  / statistics.median(warm[:quarter]))
    return {
        "eval.runner.calls": calls("eval.runner"),
        "eval.runner.self_ms": self_ms("eval.runner"),
        "isa.lookup.calls": calls("isa.lookup"),
        "isa.lookup.hit_ratio": ratio(hits, hits + misses),
        "isa.lookup.self_ms": self_ms("isa.lookup"),
        "engine.ops": ops,
        "engine.self_ms": self_ms("engine"),
        "engine.ns_per_op": ratio(self_ms("engine") * 1e6, ops),
        "engine.vector.attempts": attempts,
        "engine.vector.batches": batches,
        "engine.vector.accept_ratio": ratio(batches, attempts),
        "engine.vector.batched_ops": counters.get("vector.batched_ops", 0),
        "engine.vector.batched_ratio": ratio(
            counters.get("vector.batched_ops", 0), ops),
        "engine.vector.batch_ms": batch_ms,
        "engine.vector.decline_ms": (stretch[1] + lockstep[1]) * scale
        - batch_ms,
        "engine.vector.lockstep.attempts": lockstep[0],
        "engine.vector.lockstep.batches": lockstep[2],
        "engine.vector.lockstep.accept_ratio": ratio(lockstep[2],
                                                     lockstep[0]),
        "engine.vector.lockstep.decline_ms": (lockstep[1]
                                              - lockstep[3]) * scale,
        "sim.directory.calls": calls("sim.directory"),
        "sim.directory.self_ms": self_ms("sim.directory"),
        "sim.directory.ns_per_call": ratio(
            self_ms("sim.directory") * 1e6, calls("sim.directory")),
        "sim.mem_access.calls": calls("sim.mem_access"),
        "sim.mem_access.self_ms": self_ms("sim.mem_access"),
        "sim.translate.calls": calls("sim.translate"),
        "sim.translate.self_ms": self_ms("sim.translate"),
        "sim.hitm": counters.get("sim.hitm", 0),
        "core.translate.calls": calls("core.translate"),
        "core.translate.self_ms": self_ms("core.translate"),
        "core.ptsb_commit.calls": calls("core.ptsb_commit"),
        "core.ptsb_commit.self_ms": self_ms("core.ptsb_commit"),
        "core.commit_bytes": counters.get("core.commit_bytes", 0),
        "core.tick.calls": calls("core.tick"),
        "core.tick.self_ms": self_ms("core.tick"),
        "core.t2p.calls": calls("core.t2p"),
        "core.t2p.self_ms": self_ms("core.t2p"),
        "oskit.perf.records": counters.get("oskit.perf.records", 0),
        "oskit.perf.dropped": counters.get("oskit.perf.dropped", 0),
        "oskit.perf.on_hitm.self_ms": self_ms("oskit.perf.on_hitm"),
        "oskit.perf.drain.self_ms": self_ms("oskit.perf.drain"),
        "baselines.laser.override.calls": calls("baselines.laser.override"),
        "baselines.laser.override.self_ms": self_ms(
            "baselines.laser.override"),
        "baselines.sheriff.sync.calls": calls("baselines.sheriff.sync"),
        "baselines.sheriff.sync.self_ms": self_ms("baselines.sheriff.sync"),
        "eval.parallel.cells": counters.get("campaign.executed", 0),
        "eval.parallel.self_ms": self_ms("eval.parallel"),
        "eval.parallel.retried": counters.get("campaign.retried", 0),
        "eval.parallel.failed": counters.get("campaign.failed", 0),
        "eval.parallel.timeouts": counters.get("campaign.timeout", 0),
        "eval.grid.self_ms": self_ms("eval.grid"),
        "service.store.get.calls": calls("service.store.get"),
        "service.store.get.self_ms": self_ms("service.store.get"),
        "service.store.hit_ratio": ratio(store_hits,
                                         store_hits + store_misses),
        "service.store.put.calls": calls("service.store.put"),
        "service.store.put.self_ms": self_ms("service.store.put"),
        "service.store.evictions": counters.get("store.evictions", 0),
        "service.new_id.calls": calls("service.new_id"),
        "service.new_id.self_ms": self_ms("service.new_id"),
        "service.resume.self_ms": self_ms("service.resume"),
        "service.inbox.self_ms": self_ms("service.inbox"),
        "service.state_write.calls": calls("service.state_write"),
        "service.state_write.self_ms": self_ms("service.state_write"),
        "service.scheduler.self_ms": self_ms("service.scheduler"),
        "service.resilience.self_ms": self_ms("service.resilience"),
        "service.retries": counters.get("service.retries", 0),
        "service.quarantined": counters.get("service.quarantined", 0),
        "service.warm.late_over_early": growth,
        "trace.overhead_ratio": ratio(pass_seconds(traced, speed),
                                      pass_seconds(untraced, speed)),
        "trace.residue_ms": sum(r.residue_s
                                for r in tracer.requests) * scale,
        "host.calib_ms": statistics.median(speed.probe_ms),
    }


def traced_run(workload, seed, reference, inputs, seconds):
    """One untraced and one traced pass; returns ``(metrics, passes,
    failures, report lines)``."""
    from tracing import Tracer
    speed = HostSpeed()
    (untraced,) = run_passes(workload, seed, reference, inputs, seconds,
                             speed, single=True)
    failures = []
    tracer = Tracer()
    try:
        tracer.install()
    except (ImportError, AttributeError, LookupError) as exc:
        failures.append(f"entry point missing: {exc}")
    try:
        (traced,) = run_passes(workload, seed, reference, inputs,
                               seconds, speed, single=True,
                               tracer=tracer)
    finally:
        tracer.uninstall()
    if (traced.digest, traced.counters) != (untraced.digest,
                                            untraced.counters):
        failures.append("traced pass disagrees with the untraced pass "
                        "on simulated facts or published counters")
    if tracer.violations:
        failures.append(f"{tracer.violations} traced calls closed out "
                        f"of order or with a negative self time")
    path = os.path.join(WORK, f"trace-{workload}.json")
    tracer.write_chrome_trace(path)
    metrics = layer_metrics(tracer, traced, untraced, speed)
    lines = [f"spans: {sum(s is not None for s in tracer.spans)} in "
             f"{os.path.relpath(path, ROOT)}, requests: "
             f"{len(tracer.requests)}, stack violations: "
             f"{tracer.violations}"]
    return metrics, [untraced, traced], failures, lines


def run_all(args):
    """Run every workload in its own process, each exactly as a
    single-workload run; returns 1 unless each ran and was correct."""
    status = 0
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(child.stdout, end="", flush=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode or not lines \
                or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main():
    """Parse arguments, run the workload, print the result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.exit(f"perfbench: no program to measure under {SRC}")
    # pin the configuration: these switch the program to other paths
    for name in ("REPRO_NO_VECTOR", "REPRO_HARNESS_FAULTS", "REPRO_JOBS"):
        os.environ.pop(name, None)
    os.environ["REPRO_RESULTS_DIR"] = os.path.join(WORK, "results")

    if args.probe_setup:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return
    if args.workload == "all":
        sys.exit(run_all(args))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    reference, inputs = setup(args.workload, args.seed)
    if args.trace:
        metrics, passes, failures, lines = traced_run(
            args.workload, args.seed, reference, inputs, args.seconds)
        wanted = spec["per_layer"]
    else:
        speed = HostSpeed()
        passes = run_passes(args.workload, args.seed, reference, inputs,
                            args.seconds, speed)
        usage = [resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF,
                             resource.RUSAGE_CHILDREN)]
        probes = measure_setup(args.workload, args.seed, speed)
        metrics, lines = end_to_end(args.workload, passes, speed, probes,
                                    sum(usage) / 1024)
        failures = []
        wanted = spec["end_to_end"]
    checks, more = pass_checks(args.workload, args.seed, reference,
                               passes[:1] if args.trace else passes)
    failures += more
    for result in passes:
        failures += result.failures
    attempted = sum(p.attempted for p in passes) + checks
    if set(metrics) != {m["name"] for m in wanted}:
        sys.exit("perfbench: metrics disagree with BENCHMARK.json")
    shutil.rmtree(os.path.join(WORK, "results"), ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, pool jobs {pool_jobs()}")
    lines.append(f"error_ratio: {len(failures)}/{attempted} = "
                 f"{len(failures) / attempted:.6f}")
    for line in lines + [f"FAILED: {f}" for f in failures[:50]]:
        print("  " + line)
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:>16.6f} "
              f"{m['unit']}")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted}}))


if __name__ == "__main__":
    main()
