"""Command-line interface for the evaluation harness.

Regenerate the paper, or any one artifact of it::

    python -m repro.eval.cli reproduce --jobs 2
    python -m repro.eval.cli table3 --scale 0.3 --no-save
    python -m repro.eval.cli run histogramfs tmi-protect --scale 0.5
    python -m repro.eval.cli run racy-flag pthreads --sanitize
    python -m repro.eval.cli run histogramfs tmi-protect --profile
    python -m repro.eval.cli trace histogramfs tmi-protect --scale 0.3
    python -m repro.eval.cli metrics histogramfs tmi-protect
    python -m repro.eval.cli lint histogramfs
    python -m repro.eval.cli lint all --scale 0.05
    python -m repro.eval.cli lint all --format json --fail-on warning
    python -m repro.eval.cli repair histogram
    python -m repro.eval.cli repair all
    python -m repro.eval.cli repair-compare --scale 0.1
    python -m repro.eval.cli fuzz --seeds 16 --budget 60
    python -m repro.eval.cli fuzz racy-flag --policy pct --seeds 32
    python -m repro.eval.cli chaos --seeds 16
    python -m repro.eval.cli chaos --smoke
    python -m repro.eval.cli replay results/fuzz/racy-flag-....json
    python -m repro.eval.cli replay results/chaos/histogramfs-....json
    python -m repro.eval.cli submit --workloads histogram,histogramfs
    python -m repro.eval.cli serve --once
    python -m repro.eval.cli serve --drain
    python -m repro.eval.cli status
    python -m repro.eval.cli status grid-....-1 --json
    python -m repro.eval.cli results grid-....-1
    python -m repro.eval.cli quarantine list
    python -m repro.eval.cli quarantine inspect <digest>
    python -m repro.eval.cli quarantine release <digest>
    python -m repro.eval.cli list
"""

import argparse
import functools
import os
import sys

from repro.eval import experiments
from repro.eval.runner import run_workload
from repro.eval.systems import SYSTEM_NAMES
from repro.mapping import PLACEMENT_NAMES
from repro.sim.machine import PAGE_POLICIES
from repro.workloads import all_names

#: Experiments exposed on the command line.
EXPERIMENTS = {
    "table1": experiments.table1,
    "table2": experiments.table2,
    "table3": experiments.table3,
    "figure4": experiments.figure4,
    "figure7": experiments.figure7,
    "figure8": experiments.figure8,
    "figure9": experiments.figure9,
    "figure10": experiments.figure10,
    "ablation-ptsb": experiments.ablation_ptsb_everywhere,
    "ablation-alloc": experiments.ablation_allocator,
    "ablation-huge-commit": experiments.ablation_huge_commit,
    "ablation-code-centric": experiments.ablation_code_centric,
    "lint-accuracy": experiments.lint_accuracy,
    "repair-compare": experiments.repair_compare,
    "placement-repair": experiments.placement_repair,
}

#: Experiments whose signature takes no scale.
_NO_SCALE = {"table2"}


def build_parser():
    """Build the full argparse tree for ``python -m repro.eval.cli``."""
    parser = argparse.ArgumentParser(
        prog="repro.eval",
        description="Regenerate the TMI paper's tables and figures.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXPERIMENTS:
        cmd = sub.add_parser(name, help=f"regenerate {name}")
        if name not in _NO_SCALE:
            cmd.add_argument("--scale", type=float, default=None,
                            help="workload scale (default per experiment)")
        cmd.add_argument("--no-save", action="store_true",
                        help="don't write results/<name>.txt")
        cmd.add_argument("--jobs", type=int, default=None,
                        help="grid worker processes (default: REPRO_JOBS "
                             "env var, then cpu count); results are "
                             "identical at any job count")

    reproduce = sub.add_parser(
        "reproduce", help="regenerate every committed results/*.txt and "
                          "check the paper's claims on it")
    reproduce.add_argument("--jobs", type=int, default=None)

    run = sub.add_parser("run", help="run one workload under one system")
    run.add_argument("workload", choices=sorted(all_names()))
    run.add_argument("system", choices=sorted(SYSTEM_NAMES))
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--sanitize", action="store_true",
                     help="attach the vector-clock race sanitizer "
                          "(zero cycle impact); nonzero exit on races")
    run.add_argument("--profile", action="store_true",
                     help="run the cell under cProfile and print host "
                          "self time per layer (several times slower; "
                          "simulated cycles unchanged)")
    run.add_argument("--no-vector", action="store_true",
                     help="force the pure-serial interpreter (the "
                          "vector core is on by default when eligible; "
                          "results are bit-identical either way)")
    run.add_argument("--sockets", type=int, default=None,
                     help="simulate a multi-socket NUMA machine with "
                          "this many sockets (see docs/HARDWARE.md)")
    run.add_argument("--placement", default=None,
                     choices=sorted(PLACEMENT_NAMES),
                     help="thread-placement policy (implies a "
                          "topology-aware machine)")
    run.add_argument("--pages", default=None,
                     choices=sorted(PAGE_POLICIES),
                     help="page-placement policy for multi-socket "
                          "machines (default first-touch)")

    trace = sub.add_parser(
        "trace", help="run one cell with the tracer attached and "
                      "export the event stream")
    trace.add_argument("workload", choices=sorted(all_names()))
    trace.add_argument("system", choices=sorted(SYSTEM_NAMES))
    trace.add_argument("--scale", type=float, default=1.0)
    trace.add_argument("--out", default=None,
                       help="output path (default results/"
                            "trace-<workload>-<system>.json)")
    trace.add_argument("--format", dest="fmt", default="chrome",
                       choices=("chrome", "jsonl", "both"),
                       help="chrome = Perfetto/chrome://tracing "
                            "trace.json; jsonl = one event per line")
    trace.add_argument("--access", action="store_true",
                       help="also record every data access "
                            "(large traces; off by default)")

    metrics = sub.add_parser(
        "metrics", help="run one cell and snapshot its metrics "
                        "registry as JSON")
    metrics.add_argument("workload", choices=sorted(all_names()))
    metrics.add_argument("system", choices=sorted(SYSTEM_NAMES))
    metrics.add_argument("--scale", type=float, default=1.0)
    metrics.add_argument("--out", default=None,
                         help="write the snapshot here instead of "
                              "stdout")

    lint = sub.add_parser(
        "lint", help="statically lint workload(s); no simulation")
    lint.add_argument("workload", choices=sorted(all_names()) + ["all"])
    lint.add_argument("--scale", type=float, default=0.1)
    lint.add_argument("--variant", default=None,
                      help="force a build variant (default/fixed); "
                           "defaults to each workload's canonical build")
    lint.add_argument("--format", dest="fmt", default="text",
                      choices=("text", "json"),
                      help="json = one stable sorted-key document "
                           "(schema repro-lint-report/1) for tooling")
    lint.add_argument("--fail-on", default=None,
                      choices=("info", "warning", "error"),
                      help="exit nonzero when any finding is at or "
                           "above this severity (default: errors only)")

    repair = sub.add_parser(
        "repair", help="plan static layout repair for workload(s) and "
                       "save repro-repair-plan/1 artifacts; no "
                       "simulation beyond trace extraction")
    repair.add_argument("workload",
                        choices=sorted(all_names()) + ["all"],
                        help="workload to plan, or 'all' for the "
                             "repair suite")
    repair.add_argument("--scale", type=float, default=0.05,
                        help="default: the committed plans' scale")
    repair.add_argument("--variant", default="default",
                        help="build variant to plan against")
    repair.add_argument("--out-dir", default=None,
                        help="artifact directory (default "
                             "results/repair)")

    fuzz = sub.add_parser(
        "fuzz", help="fuzz schedules; no workload = bounded CI smoke "
                     "(positive + negative control)")
    fuzz.add_argument("workload", nargs="?", default=None,
                      choices=sorted(all_names()),
                      help="workload to fuzz (omit for smoke mode)")
    fuzz.add_argument("--system", default="pthreads",
                      choices=sorted(SYSTEM_NAMES))
    fuzz.add_argument("--policy", default="random",
                      help="perturbation policy: default/random/pct/delay")
    fuzz.add_argument("--seeds", type=int, default=16)
    fuzz.add_argument("--scale", type=float, default=0.1)
    fuzz.add_argument("--budget", type=float, default=None,
                      help="wall-clock budget in seconds (smoke default 60)")
    fuzz.add_argument("--max-cycles", type=int, default=None,
                      help="simulated-cycle budget per run (default: "
                           "25x the default schedule)")
    fuzz.add_argument("--variant", default=None)
    fuzz.add_argument("--nthreads", type=int, default=None)
    fuzz.add_argument("--no-sanitize", action="store_true",
                      help="skip the race sanitizer (final-state "
                           "oracle only)")
    fuzz.add_argument("--out-dir", default=None,
                      help="artifact directory (default results/fuzz)")
    fuzz.add_argument("--jobs", type=int, default=None)

    chaos = sub.add_parser(
        "chaos", help="seeded fault-injection campaign over the "
                      "repair suite; --smoke = bounded CI control")
    chaos.add_argument("--seeds", type=int, default=16,
                       help="number of fault plans (seeds 0..N-1)")
    chaos.add_argument("--scale", type=float, default=0.1)
    chaos.add_argument("--smoke", action="store_true",
                       help="small bounded plan set with positive "
                            "control and replay identity check")
    chaos.add_argument("--timeout", type=float, default=None,
                       help="per-cell wall-clock timeout in seconds")
    chaos.add_argument("--out-dir", default=None,
                       help="artifact directory (default results/chaos)")
    chaos.add_argument("--jobs", type=int, default=None)

    replay = sub.add_parser(
        "replay", help="re-execute a saved run record (a fuzz "
                       "finding or a chaos plan) against its oracle")
    replay.add_argument("artifact",
                        help="path to a repro-run-record/1 JSON")

    serve = sub.add_parser(
        "serve", help="run the campaign service: poll the inbox, "
                      "stream cells through one worker pool per "
                      "pass, serve cached results")
    serve.add_argument("--root", default=None,
                       help="service root (default results/service)")
    serve.add_argument("--once", action="store_true",
                       help="process everything currently submitted, "
                            "then exit (CI smoke mode)")
    serve.add_argument("--poll", type=float, default=0.2,
                       help="inbox poll interval in seconds")
    serve.add_argument("--jobs", type=int, default=None)
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-cell wall-clock timeout in seconds")
    serve.add_argument("--drain", action="store_true",
                       help="graceful shutdown: accept no new inbox "
                            "work, finish interrupted campaigns, "
                            "flush the supervision record, exit")

    submit = sub.add_parser(
        "submit", help="submit a campaign spec (a JSON file, or "
                       "built from the flags below)")
    submit.add_argument("spec", nargs="?", default=None,
                        help="path to a repro-campaign-spec/1 JSON "
                             "(omit to build one from flags)")
    submit.add_argument("--root", default=None)
    submit.add_argument("--id", dest="campaign_id", default=None,
                        help="explicit campaign id (default: derived "
                             "from the spec digest)")
    submit.add_argument("--workloads", default=None,
                        help="comma-separated workload names")
    submit.add_argument("--systems", default="pthreads",
                        help="comma-separated system names")
    submit.add_argument("--scale", type=float, default=0.1)
    submit.add_argument("--priority", type=int, default=0,
                        help="lower runs sooner")
    submit.add_argument("--name", default="")
    submit.add_argument("--run", action="store_true",
                        help="process the campaign inline instead of "
                             "spooling it for a running server")
    submit.add_argument("--jobs", type=int, default=None)

    status = sub.add_parser(
        "status", help="show one campaign's state (or list all)")
    status.add_argument("campaign", nargs="?", default=None,
                        help="campaign id (omit to list)")
    status.add_argument("--root", default=None)
    status.add_argument("--json", dest="as_json", action="store_true",
                        help="print the raw repro-campaign/1 document")
    status.add_argument("--assert-cache-hits", type=float,
                        default=None, metavar="FRAC",
                        help="exit nonzero unless the cache-hit "
                             "fraction is >= FRAC (CI gate)")

    results = sub.add_parser(
        "results", help="print a campaign's per-cell results from "
                        "the content-addressed store")
    results.add_argument("campaign", help="campaign id")
    results.add_argument("--root", default=None)
    results.add_argument("--out", default=None,
                         help="write the JSON here instead of stdout")

    quarantine = sub.add_parser(
        "quarantine", help="inspect or release quarantined poison "
                           "cells (repro-quarantine/1 entries)")
    quarantine.add_argument("action",
                            choices=("list", "inspect", "release"),
                            help="list entries, print one entry with "
                                 "the command that re-runs its cell, "
                                 "or release "
                                 "digest(s) back into execution")
    quarantine.add_argument("digest", nargs="?", default=None,
                            help="cell digest (release also accepts "
                                 "'all')")
    quarantine.add_argument("--root", default=None,
                            help="service root (default "
                                 "results/service)")

    sub.add_parser("list", help="list workloads and systems")
    return parser


def _campaign_summary(state):
    """One status line for a campaign state document."""
    counts = state.get("counts", {})
    hits = state.get("cache_hit_fraction", 0.0)
    line = (f"{state.get('id')}: {state.get('status')} "
            f"({counts.get('ok', 0)}/{counts.get('total', 0)} ok, "
            f"{counts.get('cache_hits', 0)} cached [{hits:.0%}], "
            f"{counts.get('executed', 0)} executed, "
            f"{counts.get('failed', 0)} failed, "
            f"{counts.get('timeout', 0)} timeout, "
            f"{counts.get('retried', 0)} retried")
    if counts.get("quarantined"):
        line += f", {counts['quarantined']} quarantined"
    return line + ")"


def _service_command(args):
    """Dispatch the campaign-service subcommands."""
    import asyncio
    import json

    from repro.errors import CampaignSpecError
    from repro.service import (CampaignService, CampaignSpec,
                               ServiceClient)

    if args.command == "serve":
        service = CampaignService(root=args.root, jobs=args.jobs,
                                  timeout=args.timeout)
        done = asyncio.run(service.serve(once=args.once,
                                         poll=args.poll,
                                         drain=args.drain))
        for job in done:
            print(_campaign_summary(job.to_dict()))
        held = service.resilience.quarantine.digests()
        if held:
            print(f"{len(held)} digest(s) in quarantine; "
                  f"see `quarantine list`")
        failed = sum(1 for job in done if job.status != "completed")
        return 1 if failed else 0

    if args.command == "quarantine":
        return _quarantine_command(args)

    if args.command == "submit":
        if args.spec is None and not args.workloads:
            print("submit: need a spec file or --workloads",
                  file=sys.stderr)
            return 2
        try:
            if args.spec is not None:
                spec = CampaignSpec.load(args.spec)
            else:
                spec = CampaignSpec(
                    workloads=tuple(args.workloads.split(",")),
                    systems=tuple(args.systems.split(",")),
                    scale=args.scale, priority=args.priority,
                    name=args.name)
            if args.run:
                service = CampaignService(root=args.root,
                                          jobs=args.jobs)
                job = service.run_spec(spec,
                                       campaign_id=args.campaign_id)
                print(_campaign_summary(job.to_dict()))
                return 0 if job.status == "completed" else 1
            campaign_id = ServiceClient(root=args.root).submit(
                spec, campaign_id=args.campaign_id)
        except CampaignSpecError as exc:
            print(f"submit: {exc}", file=sys.stderr)
            return 2
        except FileExistsError:
            print(f"submit: campaign id {args.campaign_id!r} already "
                  f"has a spec waiting in the inbox",
                  file=sys.stderr)
            return 2
        print(f"submitted {campaign_id} ({len(spec.cells())} cells); "
              f"run `serve` against the same root to execute")
        return 0

    client = ServiceClient(root=args.root)
    if args.command == "status":
        if args.campaign is None:
            listed = 0
            for campaign_id in client.campaign_ids():
                state = client.status(campaign_id)
                if state is not None:
                    print(_campaign_summary(state))
                    listed += 1
            if not listed:
                print("no campaigns")
            return 0
        try:
            state = client.status(args.campaign)
        except CampaignSpecError as exc:
            print(f"status: {exc}", file=sys.stderr)
            return 2
        if state is None:
            print(f"unknown campaign {args.campaign!r}",
                  file=sys.stderr)
            return 2
        if args.as_json:
            print(json.dumps(state, indent=1, sort_keys=True))
        else:
            print(_campaign_summary(state))
        if args.assert_cache_hits is not None:
            frac = state.get("cache_hit_fraction", 0.0)
            if frac < args.assert_cache_hits:
                print(f"cache-hit fraction {frac:.2%} below required "
                      f"{args.assert_cache_hits:.2%}", file=sys.stderr)
                return 1
        return 0 if state.get("status") == "completed" else 1

    # results
    try:
        rows = client.results(args.campaign)
    except CampaignSpecError as exc:
        print(f"results: {exc}", file=sys.stderr)
        return 2
    if rows is None:
        print(f"unknown campaign {args.campaign!r}", file=sys.stderr)
        return 2
    text = json.dumps(rows, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"[saved {args.out}]")
    else:
        print(text)
    return 0


def _quarantine_command(args):
    """Dispatch the ``quarantine`` subcommand (list/inspect/release)."""
    import json
    import shlex

    from repro.eval.report import results_dir
    from repro.service import Quarantine

    root = args.root or os.path.join(results_dir(), "service")
    quarantine = Quarantine(os.path.join(root, "quarantine"))

    if args.action == "list":
        digests = quarantine.digests()
        if not digests:
            print("quarantine empty")
            return 0
        for digest in digests:
            entry = quarantine.get(digest) or {}
            cell = entry.get("cell", {})
            print(f"{digest[:16]}  {cell.get('name', '?')}/"
                  f"{cell.get('system', '?')}  "
                  f"attempts={entry.get('attempts', '?')}  "
                  f"{entry.get('reason', '')}")
        print(f"{len(digests)} digest(s) held; `quarantine inspect "
              f"<digest>` shows replay kwargs")
        return 0

    if args.digest is None:
        print(f"quarantine {args.action}: need a digest",
              file=sys.stderr)
        return 2

    def resolve(prefix):
        """Expand a unique digest prefix (as ``list`` prints) to the
        full digest; ambiguous or unknown prefixes pass through."""
        matches = [d for d in quarantine.digests()
                   if d.startswith(prefix)]
        return matches[0] if len(matches) == 1 else prefix

    try:
        if args.action == "release":
            digests = (quarantine.digests() if args.digest == "all"
                       else [resolve(args.digest)])
            released = [d for d in digests if quarantine.release(d)]
        else:
            entry = quarantine.get(resolve(args.digest))
    except ValueError as exc:
        print(f"quarantine {args.action}: {exc}", file=sys.stderr)
        return 2

    if args.action == "release":
        for digest in released:
            print(f"released {digest}")
        if not released:
            print(f"no quarantine entry matches {args.digest!r}",
                  file=sys.stderr)
            return 2
        print(f"{len(released)} digest(s) released; resubmit the "
              f"campaign (same id) to re-execute them")
        return 0

    # inspect
    if entry is None:
        print(f"no quarantine entry for {args.digest!r}",
              file=sys.stderr)
        return 2
    print(json.dumps(entry, indent=1, sort_keys=True))
    cell = entry.get("cell")
    if cell:
        # the stored cell exactly, schedule/faults/config included
        code = ("from repro.eval.runner import run_workload; "
                f"o = run_workload(**{cell!r}); "
                "print(o.status, o.cycles, o.detail)")
        quoted = (shlex.quote(code) if set('"$`\\!') & set(code)
                  else f'"{code}"')
        print(f"replay: python -c {quoted}")
    return 0


def main(argv=None):
    """Entry point: dispatch one parsed subcommand; returns exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "list":
        print("workloads:", ", ".join(all_names()))
        print("systems:  ", ", ".join(SYSTEM_NAMES))
        return 0

    if args.command == "lint":
        from repro.analysis import lint_workload
        from repro.analysis.findings import meets_severity
        names = (sorted(all_names()) if args.workload == "all"
                 else [args.workload])
        reports = [lint_workload(name, scale=args.scale,
                                 variant=args.variant)
                   for name in names]
        if args.fmt == "json":
            import json
            docs = [report.to_dict() for report in reports]
            payload = docs[0] if len(docs) == 1 else {
                "format": docs[0]["format"], "reports": docs}
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for report in reports:
                print(report.format())
            if len(reports) > 1:
                failed = sum(1 for report in reports if not report.ok)
                print(f"linted {len(reports)} workloads, "
                      f"{failed} with errors")
        if args.fail_on is not None:
            gate = any(meets_severity(report.findings, args.fail_on)
                       for report in reports)
        else:
            gate = any(not report.ok for report in reports)
        return 1 if gate else 0

    if args.command == "repair":
        from repro.analysis.repair import plan_workload, save_plan
        from repro.workloads import repair_suite_names
        names = (sorted(repair_suite_names())
                 if args.workload == "all" else [args.workload])
        for name in names:
            plan = plan_workload(name, scale=args.scale,
                                 variant=args.variant)
            fixed = len(plan.predicted_fixed)
            residual = len(plan.predicted_residual)
            print(f"repair {name}: {fixed + residual} false line(s), "
                  f"{fixed} fixed, {residual} residual; "
                  f"{len(plan.relocations)} relocation(s), "
                  f"arena {plan.arena_bytes} B, "
                  f"score {plan.cost.get('score', 0):.3f}")
            for line in plan.lines:
                verdict = (line.transformation if line.fixed
                           else f"residual: {line.reason}")
                print(f"  line {line.line_va:#x}: {verdict}")
            path = (save_plan(plan) if args.out_dir is None
                    else save_plan(plan, os.path.join(
                        args.out_dir, f"{plan.workload}-plan.json")))
            print(f"  [saved {path}]")
        return 0

    if args.command == "run":
        cell = functools.partial(
            run_workload, args.workload, args.system, scale=args.scale,
            sanitize=args.sanitize, vector=not args.no_vector,
            sockets=args.sockets, placement=args.placement,
            pages=args.pages, collect_metrics=args.sockets is not None)
        profiler = None
        if args.profile:
            import cProfile
            profiler = cProfile.Profile()
            outcome = profiler.runcall(cell)
        else:
            outcome = cell()
        print(f"{args.workload} under {args.system}: {outcome.status}")
        if outcome.result is not None:
            result = outcome.result
            print(f"  runtime : {result.seconds * 1e3:.3f} ms "
                  f"({result.cycles} cycles)")
            print(f"  HITM    : {result.hitm_total} "
                  f"(loads {result.hitm_loads}, "
                  f"stores {result.hitm_stores})")
            print(f"  sync ops: {result.sync_ops}   "
                  f"data ops: {result.data_ops}")
            if outcome.metrics is not None:
                counters = outcome.metrics["counters"]
                print(f"  NUMA    : "
                      f"{counters.get('machine.hitm.cross_socket', 0)} "
                      f"cross-socket HITM, "
                      f"{counters.get('machine.qpi.hops', 0)} QPI hops, "
                      f"{counters.get('machine.numa.remote_fills', 0)} "
                      f"remote fills")
            if result.runtime_report:
                print(f"  report  : {result.runtime_report}")
        if outcome.detail:
            print(f"  detail  : {outcome.detail}")
        if outcome.analysis is not None:
            print(outcome.analysis.format())
            if not outcome.analysis.ok:
                return 1
        if profiler is not None:
            from repro.obs import by_layer, format_profile
            print(format_profile(by_layer(profiler)))
        return 0 if outcome.ok else 1

    if args.command == "trace":
        from repro.eval.report import results_dir
        from repro.obs import write_chrome_trace, write_jsonl
        outcome = run_workload(
            args.workload, args.system, scale=args.scale,
            trace="access" if args.access else True)
        print(f"{args.workload} under {args.system}: {outcome.status}")
        if outcome.trace_data is None:
            if outcome.detail:
                print(f"  detail: {outcome.detail}")
            return 1
        counts = outcome.trace_data["counts"]
        total = sum(counts.values())
        print(f"  {total} events: " + ", ".join(
            f"{kind}={n}" for kind, n in counts.items()))
        out = args.out or os.path.join(
            results_dir(), f"trace-{args.workload}-{args.system}.json")
        if args.fmt in ("chrome", "both"):
            write_chrome_trace(outcome.trace_data, out)
            print(f"[saved {out}] (open in ui.perfetto.dev or "
                  "chrome://tracing)")
        if args.fmt in ("jsonl", "both"):
            jsonl = (out if args.fmt == "jsonl"
                     else os.path.splitext(out)[0] + ".jsonl")
            write_jsonl(outcome.trace_data, jsonl)
            print(f"[saved {jsonl}]")
        return 0 if outcome.ok else 1

    if args.command == "metrics":
        outcome = run_workload(args.workload, args.system,
                               scale=args.scale, collect_metrics=True)
        if outcome.metrics is None:
            print(f"{args.workload} under {args.system}: "
                  f"{outcome.status}")
            if outcome.detail:
                print(f"  detail: {outcome.detail}")
            return 1
        import json
        text = json.dumps(outcome.metrics, indent=1, sort_keys=True)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
            print(f"[saved {args.out}]")
        else:
            print(text)
        return 0 if outcome.ok else 1

    if args.command == "fuzz":
        from repro.schedule import fuzz_workload, smoke_fuzz
        if args.jobs is not None:
            os.environ["REPRO_JOBS"] = str(args.jobs)
        if args.workload is None:
            result = smoke_fuzz(seeds=args.seeds,
                                budget=args.budget or 60.0,
                                jobs=args.jobs, out_dir=args.out_dir)
            print("\n".join(result.summary_lines()))
            return 0 if result.ok else 1
        report = fuzz_workload(
            args.workload, system=args.system, policy=args.policy,
            seeds=args.seeds, scale=args.scale, nthreads=args.nthreads,
            variant=args.variant, max_cycles=args.max_cycles,
            budget=args.budget, jobs=args.jobs, out_dir=args.out_dir,
            sanitize=not args.no_sanitize)
        print("\n".join(report.summary_lines()))
        return 0 if report.ok else 1

    if args.command == "chaos":
        from repro.faults import chaos_repair_suite, chaos_smoke
        if args.jobs is not None:
            os.environ["REPRO_JOBS"] = str(args.jobs)
        if args.smoke:
            smoke = chaos_smoke(seeds=min(args.seeds, 8),
                                scale=min(args.scale, 0.05),
                                jobs=args.jobs, out_dir=args.out_dir,
                                timeout=args.timeout)
            print("\n".join(smoke.summary_lines()))
            return 0 if smoke.ok else 1
        report = chaos_repair_suite(
            seeds=args.seeds, scale=args.scale, jobs=args.jobs,
            out_dir=args.out_dir, timeout=args.timeout)
        print("\n".join(report.summary_lines()))
        return 0 if report.ok else 1

    if args.command == "replay":
        from repro.eval.record import RunRecord, replay
        record = RunRecord.load(args.artifact)
        matches, detail, outcome = replay(record)
        origin = " ".join(f"{k}={v}" for k, v in
                          sorted(record.origin.items()))
        print(f"replay {record.cell['name']}/{record.cell['system']} "
              f"{origin} (oracle {record.oracle})")
        print(f"  outcome : {outcome.status}"
              + (f" ({outcome.detail})" if outcome.detail else ""))
        print(f"  {detail}")
        if matches:
            print("  reproduced")
            return 0
        print(f"  DID NOT reproduce (artifact: {args.artifact})")
        return 1

    if args.command in ("serve", "submit", "status", "results",
                        "quarantine"):
        return _service_command(args)

    if getattr(args, "jobs", None) is not None:
        os.environ["REPRO_JOBS"] = str(args.jobs)

    if args.command == "reproduce":
        from repro.eval.claims import reproduce
        problems = reproduce()
        print("\n".join(problems) or "reproduce: every results/*.txt "
              "unchanged, every claim holds")
        return 1 if problems else 0

    fn = EXPERIMENTS[args.command]
    kwargs = {}
    if args.command not in _NO_SCALE and args.scale is not None:
        kwargs["scale"] = args.scale
    result = fn(**kwargs)
    print(result.text)
    if not args.no_save:
        print(f"[saved {result.save()}]")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # `... | head` closed stdout; exit quietly like other CLIs do.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
