"""Run (workload, system) pairs and collect outcomes.

Failures are first-class results: Sheriff refusing a native input,
hanging on cholesky, or corrupting canneal are *findings* the paper
reports, not harness errors.  The same applies to schedule fuzzing:
``schedule=`` runs the cell under a perturbation policy (see
:mod:`repro.schedule`) and a livelocking interleaving comes back as a
``budget`` outcome carrying its decision log, not as a hang of the
harness.
"""

from dataclasses import dataclass

from repro.engine import Engine
from repro.errors import (CycleBudgetError, DeadlockError, HangError,
                          IncompatibleWorkloadError)
from repro.eval.systems import (STATIC_REPAIR_SYSTEMS, make_runtime,
                                workload_variant)
from repro.workloads import get as get_workload

OK = "ok"
INCOMPATIBLE = "incompatible"
HANG = "hang"
INVALID = "invalid"
DEADLOCK = "deadlock"
#: The engine's max_cycles budget ran out (livelocking schedule).
BUDGET = "budget"


@dataclass
class RunOutcome:
    """One (workload, system) execution."""

    workload: str
    system: str
    status: str
    result: object = None          # RunResult when status != incompatible
    detail: str = ""
    #: RaceReport when the run was sanitized (``sanitize=True``).
    analysis: object = None
    #: Schedule decision-log snapshot ({policy, seed, decisions}) when
    #: the run was policy-scheduled (``schedule=``); None otherwise.
    trace: object = None
    #: Workload final-state digest (``collect_state=True``, ok runs).
    final_state: object = None
    #: Tracer events as a plain ``repro-trace/1`` dict (``trace=True``);
    #: feed it to :func:`repro.obs.write_chrome_trace` / ``write_jsonl``.
    trace_data: object = None
    #: MetricsRegistry snapshot dict (``collect_metrics=True``).
    metrics: object = None
    #: Fault-injection record ({"spec", "counts", "log"}) when the run
    #: executed under an armed fault plan (``faults=``); None otherwise.
    faults: object = None
    #: ``repro-repair-plan/1`` dict when the run executed a statically
    #: rewritten program (``static-repaired`` / ``static-tmi``).
    plan: object = None

    @property
    def ok(self):
        """Whether the run completed with status ``ok``."""
        return self.status == OK

    @property
    def cycles(self):
        """Simulated cycle count, or None when no result exists."""
        return self.result.cycles if self.result else None


def run_workload(name, system, scale=1.0, config=None, variant=None,
                 nthreads=None, sanitize=False, schedule=None,
                 max_cycles=None, collect_state=False, trace=False,
                 collect_metrics=False, faults=None, vector=True,
                 sockets=None, placement=None, pages=None):
    """Run one workload under one system; never raises for the failure
    modes the paper studies.

    ``sanitize=True`` attaches the vector-clock race sanitizer; its
    :class:`~repro.analysis.race.RaceReport` lands on the outcome's
    ``analysis`` field (simulation results are unaffected — observer
    callbacks charge no cycles).

    ``schedule`` is a policy spec dict (``{"policy": "random", "seed":
    7}``, see :func:`repro.schedule.make_policy`): the run executes
    under that scheduling policy and the outcome's ``trace`` field
    records the decision log for exact replay.  ``max_cycles`` bounds
    the simulated cycle budget (livelock detection for fuzzed
    schedules).  ``collect_state=True`` computes the workload's
    schedule-independent final-state digest on ok runs.

    Observability (see :mod:`repro.obs`): ``trace=True`` attaches a
    :class:`~repro.obs.Tracer` (``trace="access"`` additionally records
    every data access) and puts its event dict on ``trace_data``;
    ``collect_metrics=True`` snapshots the run's
    :class:`~repro.obs.MetricsRegistry` onto ``metrics``.  Both leave
    simulated cycles bit-identical.  For host time per layer, run this
    function under ``cProfile`` and roll the result up with
    :func:`repro.obs.by_layer` (the CLI's ``run --profile``).

    ``faults`` arms deterministic fault injection (see
    :mod:`repro.faults`): a ``{"seed", "rates", "limits"}`` spec dict.
    An unknown fault point raises
    :class:`~repro.errors.FaultPlanError` before the first simulated
    cycle.  The injection record lands on the outcome's ``faults``
    field; the same spec replays the identical failure sequence
    regardless of ``REPRO_JOBS``.

    ``vector`` forwards to :class:`~repro.engine.Engine`: ``True``
    (the default) uses the vector core when the run is eligible and
    the serial interpreter otherwise; ``False`` forces the serial
    interpreter.  Results are bit-identical either way — the flag only
    changes host speed.

    NUMA (see ``docs/HARDWARE.md``): ``sockets`` builds the machine on
    a multi-socket :class:`~repro.sim.topology.Topology`, ``placement``
    names a thread-placement policy from :mod:`repro.mapping`
    (``sharing-aware`` plans from a throwaway trace extraction, like
    the static-repair systems), and ``pages`` picks the page-placement
    policy (``first-touch`` / ``interleave``).  Leaving all three at
    ``None`` runs the historical single-socket machine byte-identical
    to every earlier PR.
    """
    workload = get_workload(name, scale=scale, nthreads=nthreads)
    build_variant = variant or workload_variant(system)
    program = workload.build(build_variant)
    repair_plan = None
    if system in STATIC_REPAIR_SYSTEMS:
        from repro.analysis.repair import (plan_program, plan_to_dict,
                                           rewrite_program)
        # extraction consumes generators: plan from a throwaway build,
        # then rewrite the Program destined for the engine
        repair_plan = plan_program(
            workload.build(build_variant), variant=build_variant)
        program, _rewriter = rewrite_program(program, repair_plan)
        repair_plan = plan_to_dict(repair_plan)
    runtime = make_runtime(system, config)
    injector = None
    if faults is not None:
        from repro.faults import FaultInjector
        injector = FaultInjector(**faults)
        runtime.faults = injector
    policy = None
    if schedule is not None:
        from repro.schedule import make_policy
        policy = make_policy(schedule)
    engine_kwargs = {}
    if max_cycles is not None:
        engine_kwargs["max_cycles"] = max_cycles
    if sockets is not None or placement is not None or pages is not None:
        from repro.mapping import affinity_groups, make_placement
        from repro.sim.machine import Machine
        from repro.sim.topology import Topology
        n_cores = program.nthreads + 2
        topology = Topology.fit(n_cores, sockets or 1)
        engine_kwargs["machine"] = Machine(
            n_cores=n_cores, topology=topology,
            pages=pages or "first-touch")
        if placement is not None:
            groups = None
            if placement == "sharing-aware":
                # like the static-repair systems: measure sharing on a
                # throwaway build, place the real program
                from repro.analysis.extract import TraceExtractor
                extract = TraceExtractor(
                    workload.build(build_variant)).run()
                groups = affinity_groups(extract.lines,
                                         program.nthreads + 2)
            engine_kwargs["placement"] = make_placement(
                placement, topology, n_cores, groups=groups)
    try:
        engine = Engine(program, runtime, policy=policy, vector=vector,
                        **engine_kwargs)
    except IncompatibleWorkloadError as exc:
        return RunOutcome(name, system, INCOMPATIBLE, detail=exc.reason)
    sanitizer = None
    if sanitize:
        from repro.analysis import RaceSanitizer
        sanitizer = RaceSanitizer()
        engine.attach_observer(sanitizer)
    tracer = None
    if trace:
        from repro.obs import Tracer
        tracer = Tracer(access_events=trace == "access")
        engine.attach_observer(tracer)
    report = sanitizer.report if sanitizer else None

    def outcome(status, result=None, detail=""):
        out = RunOutcome(name, system, status, result=result,
                         detail=detail, analysis=report,
                         trace=engine.schedule_trace(),
                         plan=repair_plan)
        if collect_state and status == OK:
            view_fn = getattr(program, "memory_view", None)
            state_engine = view_fn(engine) if view_fn else engine
            out.final_state = workload.final_state(program.env,
                                                   state_engine)
        if tracer is not None:
            out.trace_data = tracer.trace_data()
        if collect_metrics:
            out.metrics = engine.metrics().snapshot()
        if injector is not None:
            out.faults = {
                "spec": {"seed": injector.seed,
                         "rates": dict(injector.rates),
                         "limits": dict(injector.limits)},
                "counts": injector.fired_counts(),
                "log": injector.log()}
        return out

    try:
        result = engine.run()
    except CycleBudgetError as exc:
        return outcome(BUDGET, detail=str(exc))
    except HangError as exc:
        return outcome(HANG, detail=str(exc))
    except DeadlockError as exc:
        return outcome(DEADLOCK, detail=str(exc))
    except AssertionError as exc:
        return outcome(INVALID, detail=str(exc))
    if not result.validated:
        return outcome(INVALID, result=result, detail=result.error)
    return outcome(OK, result=result)


def run_matrix(workloads, systems, scale=1.0, config=None, jobs=None):
    """{workload: {system: RunOutcome}} over the cross product.

    Cells are independent simulations, so they fan out across worker
    processes (``REPRO_JOBS``/``jobs``; see :mod:`repro.eval.parallel`)
    with results identical to the serial loop.
    """
    from repro.eval.parallel import run_cells
    pairs = [(name, system) for name in workloads for system in systems]
    outcomes = run_cells(
        [dict(name=name, system=system, scale=scale, config=config)
         for name, system in pairs], jobs=jobs)
    grid = {}
    for (name, system), outcome in zip(pairs, outcomes):
        grid.setdefault(name, {})[system] = outcome
    return grid
