"""Span tracing for the benchmark's traced pass.

Spans are recorded from this file only: :meth:`Tracer.install` wraps
each public entry point in :data:`ENTRY_POINTS` on the class or module
that defines it, and :meth:`Tracer.uninstall` restores the originals.
A method is wrapped only where its class defines it (``cls.__dict__``),
never where the class inherits it: ``Engine._build_vector`` compares a
runtime class's hooks with ``RuntimeHooks``', so a wrapper on an
inherited hook would flip vector-core eligibility and the traced pass
would measure a different program.

Every wrapped call pushes a frame on one stack.  A frame's self time is
its duration minus the durations of the frames nested in it, so within
one request the self times of all frames plus the request's residue
(time outside every wrapped call) add up to the request's duration, as
long as calls close in the order they opened.  That order is what can
go wrong (a call from another thread interleaving on the shared stack),
so every close checks that it pops the frame its call pushed and that
no self time is negative; :attr:`Tracer.violations` counts the calls
that fail either check.
Coarse boundaries also record one span each (name, start, end, parent
span, request id); per-access boundaries are only aggregated into a
count and a self time under the enclosing request, because a grid pass
makes millions of them.  Forked pool workers inherit the wrappers but
not the recording: the fork hook turns the tracer off in the child, so
the cold campaign phase is seen from the parent, as pool calls.

The stack is shared by the threads of the process.  That is sound for
the workloads here because they run one request at a time: the only
wrapped calls made off the main thread (``run_checkpointed`` under
``asyncio.to_thread``) happen while the main thread waits for them.
The checks above are what would show otherwise.

An entry point that the program no longer defines makes
:meth:`Tracer.install` raise, so a renamed or removed layer fails the
traced run instead of silently moving its time into its caller's.
"""

import functools
import importlib
import inspect
import json
import os
import time
from dataclasses import dataclass

#: ``(module, attribute, layer key, one span per call, accept counter)``.
#: The module is where callers look the name up.  The accept counter is
#: an attribute of the called object that grows when the call batched.
ENTRY_POINTS = (
    ("repro.engine.scheduler", "Engine.run", "engine", True, None),
    ("repro.engine.scheduler", "Engine.convert_thread_to_process",
     "core.t2p", True, None),
    ("repro.core.runtime", "TmiRuntime.on_tick", "core.tick", True, None),
    ("repro.core.ptsb", "PageTwinningStoreBuffer.commit",
     "core.ptsb_commit", True, None),
    ("repro.service.service", "CampaignService.reserve_campaign_id",
     "service.new_id", True, None),
    ("repro.service.service", "CampaignService.resume_incomplete",
     "service.resume", True, None),
    ("repro.service.service", "CampaignService.poll_inbox",
     "service.inbox", True, None),
    ("repro.service.scheduler", "CampaignScheduler.run_job",
     "service.scheduler", True, None),
    ("repro.service.scheduler", "CampaignJob.write_state",
     "service.state_write", True, None),
    ("repro.service.resilience", "ResilienceSupervisor.save_state",
     "service.resilience", True, None),
    ("repro.service.store", "ResultStore.get", "service.store.get", True,
     None),
    ("repro.service.store", "ResultStore.put", "service.store.put", True,
     None),
    ("repro.service.scheduler", "run_checkpointed", "eval.grid", True,
     None),
    ("repro.eval.grid", "run_cells_recorded", "eval.parallel", True,
     None),
    ("repro.engine.vector.compiler", "RunCompiler.lookup", "isa.lookup",
     False, None),
    ("repro.engine.vector.executor", "VectorExecutor.advance",
     "engine.vector.stretch", False, "batches"),
    ("repro.engine.vector.executor", "VectorExecutor.try_lockstep",
     "engine.vector.lockstep", False, "lockstep_batches"),
    ("repro.sim.cache", "CoherenceDirectory.access", "sim.directory",
     False, None),
    ("repro.sim.machine", "Machine.mem_access", "sim.mem_access", False,
     None),
    ("repro.sim.addrspace", "AddressSpace.translate", "sim.translate",
     False, None),
    ("repro.core.runtime", "TmiRuntime.translate", "core.translate",
     False, None),
    ("repro.baselines.laser", "LaserRuntime.exec_access_override",
     "baselines.laser.override", False, None),
    ("repro.baselines.sheriff", "SheriffRuntime.on_sync_acquired",
     "baselines.sheriff.sync", False, None),
    ("repro.baselines.sheriff", "SheriffRuntime.on_sync_release",
     "baselines.sheriff.sync", False, None),
    ("repro.oskit.perf", "PerfSession.on_hitm", "oskit.perf.on_hitm",
     False, None),
    ("repro.oskit.perf", "PerfSession.drain", "oskit.perf.drain", False,
     None),
)


#: A self time this far below zero is float rounding, not a lost frame.
ROUNDING_S = 1e-9


@dataclass
class Request:
    """One traced request: its span and per-layer aggregates.

    ``layers`` maps a layer key to ``[calls, self_s, accepted_calls,
    accepted_self_s]``; ``residue_s`` is the request's time outside
    every wrapped call.
    """

    label: str
    start: float
    end: float
    layers: dict
    residue_s: float


class Tracer:
    """Records spans and per-layer self times around entry points."""

    def __init__(self):
        self.enabled = True
        #: ``(name, start, end, parent span, request id)`` per span.
        self.spans = []
        self.requests = []
        #: Calls that closed out of order or with a negative self time.
        self.violations = 0
        self._stack = [[0.0, -1]]      # frames: [child seconds, span id]
        self._layers = {}              # aggregates of the open request
        self._request = -1
        self._undo = []
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self):
        self.enabled = False

    # ------------------------------------------------------------------
    def install(self):
        """Wrap every entry point; raise ``ImportError``,
        ``AttributeError`` or ``LookupError`` naming the first one the
        program does not define (those before it stay wrapped until
        :meth:`uninstall`)."""
        for module, attr, key, span, counter in ENTRY_POINTS:
            owner_path, _, name = attr.rpartition(".")
            owner = importlib.import_module(module)
            if owner_path:
                owner = getattr(owner, owner_path)
            if name not in vars(owner):
                raise LookupError(f"{module}.{attr} is not defined")
            fn = vars(owner)[name]
            self._undo.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, key, span, counter))

    def uninstall(self):
        """Restore every wrapped entry point."""
        while self._undo:
            owner, name, fn = self._undo.pop()
            setattr(owner, name, fn)

    def _open(self, span):
        parent = self._stack[-1]
        frame = [0.0, parent[1]]
        if span:
            frame[1] = len(self.spans)
            self.spans.append(None)
        self._stack.append(frame)
        return parent, frame

    def _close(self, key, parent, frame, start, end, accepted, span):
        duration = end - start
        own = duration - frame[0]
        if self._stack.pop() is not frame or own < -ROUNDING_S:
            self.violations += 1
        parent[0] += duration
        entry = self._layers.get(key)
        if entry is None:
            entry = self._layers[key] = [0, 0.0, 0, 0.0]
        entry[0] += 1
        entry[1] += own
        if accepted:
            entry[2] += 1
            entry[3] += own
        if span:
            self.spans[frame[1]] = (key, start, end, parent[1],
                                    self._request)

    def _wrap(self, fn, key, span, counter):
        tracer, clock = self, time.perf_counter

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if not tracer.enabled:
                    return await fn(*args, **kwargs)
                parent, frame = tracer._open(span)
                start = clock()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    tracer._close(key, parent, frame, start, clock(),
                                  False, span)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            before = getattr(args[0], counter) if counter else 0
            parent, frame = tracer._open(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                accepted = (counter is not None
                            and getattr(args[0], counter) > before)
                tracer._close(key, parent, frame, start, end, accepted,
                              span)
        return traced

    # ------------------------------------------------------------------
    def request(self, label, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` as one traced request."""
        root = [0.0, len(self.spans)]
        self.spans.append(None)
        self._stack.append(root)
        self._layers, self._request = {}, len(self.requests)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            residue = (end - start) - root[0]
            if self._stack.pop() is not root or residue < -ROUNDING_S:
                self.violations += 1
            self.spans[root[1]] = (label, start, end, -1, self._request)
            self.requests.append(Request(label, start, end, self._layers,
                                         residue))
            self._layers, self._request = {}, -1

    def traced(self, key, fn):
        """``fn`` wrapped as a coarse span of layer ``key`` (for calls
        the benchmark makes itself, such as ``run_workload``)."""
        return self._wrap(fn, key, True, None)

    def totals(self):
        """Per-layer aggregates summed over every request."""
        out = {}
        for request in self.requests:
            for key, entry in request.layers.items():
                total = out.setdefault(key, [0, 0.0, 0, 0.0])
                for i, value in enumerate(entry):
                    total[i] += value
        return out

    def write_chrome_trace(self, path):
        """Write the spans (and each request's per-layer aggregates) as
        a Chrome/Perfetto trace file."""
        origin = self.requests[0].start if self.requests else 0.0
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": round((start - origin) * 1e6, 3),
                   "dur": round((end - start) * 1e6, 3),
                   "args": {"span": index, "parent": parent,
                            "request": request}}
                  for index, (name, start, end, parent, request)
                  in enumerate(self.spans) if name is not None]
        aggregates = [{"request": index, "label": r.label,
                       "residue_ms": r.residue_s * 1e3,
                       "layers": {key: {"calls": e[0],
                                        "self_ms": e[1] * 1e3,
                                        "accepted": e[2]}
                                  for key, e in sorted(r.layers.items())}}
                      for index, r in enumerate(self.requests)]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "requests": aggregates,
                       "violations": self.violations}, fh)
