"""Structured event tracing for simulation runs.

A :class:`Tracer` is an :class:`~repro.analysis.observer.EngineObserver`
(attached with ``Engine.attach_observer``), so it charges zero cycles
and cannot perturb simulation results — the cycle-exactness goldens pin
that a traced run computes exactly the bytes an untraced run does.  On
top of the base observer callbacks it consumes the observability hooks
added for this layer: machine HITM events, PEBS sample batches, detector
interval decisions, thread-to-process conversions, and PTSB
commits/flushes.

Events are plain dicts with a simulated-cycle timestamp.  Two export
formats:

- **JSONL** (:func:`write_jsonl`): a ``repro-trace/1`` header line
  followed by one event per line — grep/jq-friendly, and the format the
  determinism-bisection workflow diffs;
- **Chrome trace JSON** (:func:`write_chrome_trace`): a
  ``chrome://tracing`` / Perfetto-loadable ``trace.json`` with one
  track per simulated core, one per application thread, and one for the
  TMI monitor (detector + repair machinery).
"""

import json

from repro.analysis.observer import EngineObserver

#: Trace format version; bump when the event schema changes.
TRACE_VERSION = "repro-trace/1"


class Tracer(EngineObserver):
    """Collects structured events from one simulation run.

    ``access_events=True`` additionally records every plain and atomic
    data access — complete but enormous; leave it off unless a handful
    of operations is under the microscope.
    """

    def __init__(self, access_events=False):
        self.access_events = access_events
        # without per-access events every access callback is a no-op,
        # so the vector batch executor may stay active under tracing;
        # access-level tracing needs the serial callback-emitting path
        self.vector_safe = not access_events
        self.events = []
        self.meta = {}
        self._engine = None
        self._costs = None

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def on_attach(self, engine):
        """Capture run metadata; the engine is fully constructed."""
        self._engine = engine
        self._costs = engine.costs
        self.meta = {
            "program": engine.program.name,
            "system": engine.runtime.name,
            "n_cores": engine.machine.n_cores,
            "cycles_per_second": engine.costs.cycles_per_second,
        }
        topology = engine.machine.topology
        if topology.sockets > 1:
            # only on multi-socket machines: single-socket trace dicts
            # stay byte-identical to every earlier PR
            self.meta["sockets"] = topology.sockets
            self.meta["cores_per_socket"] = topology.cores_per_socket

    def _now(self, tid=None):
        """Current cycle on ``tid``'s core (machine time if unknown)."""
        if tid is not None:
            thread = self._engine.threads.get(tid)
            if thread is not None:
                return self._engine.machine.core_clock[thread.core]
        return self._engine.machine.now

    def _core_of(self, tid):
        """The core ``tid`` runs on (-1 when the thread is unknown)."""
        thread = self._engine.threads.get(tid)
        return thread.core if thread is not None else -1

    def _emit(self, kind, ts, **fields):
        fields["kind"] = kind
        fields["ts"] = ts
        self.events.append(fields)

    # ------------------------------------------------------------------
    # thread lifecycle
    # ------------------------------------------------------------------
    def on_thread_create(self, parent_tid, child_tid):
        """Record a thread creation edge."""
        self._emit("thread_create", self._now(child_tid),
                   tid=child_tid, parent=parent_tid,
                   core=self._core_of(child_tid))

    def on_thread_exit(self, tid):
        """Record a thread running to completion."""
        self._emit("thread_exit", self._now(tid), tid=tid)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    @staticmethod
    def _sync_id(obj):
        kind = type(obj).__name__.lower()
        ident = getattr(obj, "mid", None) or getattr(obj, "bid", None) \
            or getattr(obj, "cid", None)
        return f"{kind}:{ident}" + (f":{obj.name}" if obj.name else "")

    def on_acquire(self, tid, obj):
        """Record a lock acquisition."""
        self._emit("sync_acquire", self._now(tid), tid=tid,
                   obj=self._sync_id(obj))

    def on_release(self, tid, obj):
        """Record a lock release (including cond_wait's)."""
        self._emit("sync_release", self._now(tid), tid=tid,
                   obj=self._sync_id(obj))

    def on_barrier(self, tids):
        """Record a barrier release with all participants."""
        self._emit("barrier", self._engine.machine.now, tids=list(tids))

    def on_hb_edge(self, src_tid, dst_tid):
        """Record a direct happens-before edge (join, cond signal)."""
        self._emit("hb_edge", self._now(dst_tid), src=src_tid,
                   dst=dst_tid)

    def on_fence(self, tid):
        """Record a full memory fence."""
        self._emit("fence", self._now(tid), tid=tid)

    # ------------------------------------------------------------------
    # data accesses (opt-in: high volume)
    # ------------------------------------------------------------------
    def on_access(self, tid, site, addr, width, is_write, volatile):
        """Record one plain access when ``access_events`` is on."""
        if self.access_events:
            self._emit("access", self._now(tid), tid=tid, pc=site.pc,
                       addr=addr, width=width, is_write=is_write,
                       volatile=volatile)

    def on_atomic(self, tid, site, addr, width, is_write, is_rmw,
                  ordering):
        """Record one atomic access when ``access_events`` is on."""
        if self.access_events:
            self._emit("atomic", self._now(tid), tid=tid, pc=site.pc,
                       addr=addr, width=width, is_write=is_write,
                       is_rmw=is_rmw, ordering=ordering)

    # ------------------------------------------------------------------
    # observability hooks (machine / TMI runtime)
    # ------------------------------------------------------------------
    def on_hitm(self, event):
        """Record one machine HITM (remote-Modified hit)."""
        self._emit("hitm", event.cycle, core=event.core, tid=event.tid,
                   pc=event.pc, va=event.va, pa=event.pa,
                   width=event.width, is_store=event.is_store,
                   remote_core=event.remote_core)

    def on_pebs_records(self, records):
        """Record a drained batch of PEBS samples."""
        for record in records:
            self._emit("pebs_record", record.cycle, tid=record.tid,
                       pc=record.pc, va=record.va)

    def on_detect_interval(self, report, cycle):
        """Record one detector interval decision."""
        self._emit(
            "detect_interval", cycle, interval=report.interval,
            records=report.records, filtered=report.filtered,
            estimated_events=report.estimated_events,
            false_lines=report.false_lines,
            true_lines=report.true_lines,
            targets=[{"page_va": t.page_va, "page_size": t.page_size,
                      "line_va": t.line_va,
                      "estimated_rate": t.estimated_rate}
                     for t in report.targets])

    def on_t2p(self, info):
        """Record a thread-to-process conversion episode."""
        self._emit("t2p", info.get("cycle", self._engine.machine.now),
                   threads=info.get("threads"),
                   cycles=info.get("cycles"),
                   mode=info.get("mode", "initial"))

    def on_ptsb_commit(self, info):
        """Record one PTSB commit (diff + merge)."""
        core = info.get("core", 0)
        self._emit("ptsb_commit", self._engine.machine.core_clock[core],
                   pid=info.get("pid"), core=core,
                   reason=info.get("reason"), pages=info.get("pages"),
                   bytes=info.get("bytes"))

    def on_ptsb_flush(self, info):
        """Record a consistency-driven PTSB flush (atomic/asm entry)."""
        self._emit("ptsb_flush", self._now(info.get("tid")),
                   tid=info.get("tid"), region=info.get("region"))

    def on_fault(self, event):
        """Record one injected fault (or fault-driven page demotion)."""
        fields = {k: v for k, v in event.items()
                  if k not in ("kind", "ts", "cycle")}
        self._emit("fault", event.get("cycle",
                                      self._engine.machine.now),
                   **fields)

    def on_degradation(self, info):
        """Record a degradation-ladder transition."""
        self._emit("degradation", info.get("cycle", 0),
                   interval=info.get("interval"),
                   level_from=info.get("from"), level_to=info.get("to"),
                   reason=info.get("reason"))

    def on_vector_switch(self, tid, ts, mode, ops):
        """Record one thread's share of a committed lockstep window.

        Rendered on the per-thread tracks as ``vector_lockstep``
        events, so a Perfetto view shows exactly where batching ran.
        """
        self._emit(f"vector_{mode}", ts, tid=tid, ops=ops)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def counts(self):
        """Event totals by kind (deterministic ordering)."""
        totals = {}
        for event in self.events:
            kind = event["kind"]
            totals[kind] = totals.get(kind, 0) + 1
        return dict(sorted(totals.items()))

    def trace_data(self):
        """The full trace as one plain, picklable dict.

        This is the hand-off format: workers can ship it across process
        boundaries and the export functions below render it to disk.
        """
        return {"version": TRACE_VERSION, "meta": dict(self.meta),
                "counts": self.counts(), "events": list(self.events)}


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------

def write_jsonl(trace_data, path):
    """Write a trace as JSONL: header line, then one event per line."""
    header = {"version": trace_data["version"],
              "meta": trace_data["meta"],
              "counts": trace_data["counts"]}
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for event in trace_data["events"]:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    return path


#: Synthetic pids for the Chrome trace's process groups.
_PID_CORES = 0
_PID_THREADS = 1
_PID_MONITOR = 2
#: Event kinds drawn on the per-core tracks.
_CORE_KINDS = {"hitm", "ptsb_commit"}
#: Event kinds drawn on the TMI monitor track.
_MONITOR_KINDS = {"pebs_record", "detect_interval", "t2p", "fault",
                  "degradation"}


def _microseconds(trace_data, cycle):
    hz = trace_data["meta"].get("cycles_per_second") or 1e9
    return cycle / hz * 1e6


def write_chrome_trace(trace_data, path):
    """Write a Chrome-trace/Perfetto ``trace.json``.

    Tracks: one per simulated core (HITM and PTSB-commit activity),
    one per application thread (sync and lifecycle events), and one
    for the TMI monitor (PEBS samples, detector intervals, T2P).
    """
    meta = trace_data["meta"]
    out = []

    def metadata(pid, tid, what, name):
        out.append({"ph": "M", "pid": pid, "tid": tid, "name": what,
                    "args": {"name": name}})

    metadata(_PID_CORES, 0, "process_name",
             f"cores ({meta.get('system', '?')})")
    metadata(_PID_THREADS, 0, "process_name", "threads")
    metadata(_PID_MONITOR, 0, "process_name", "tmi-monitor")
    metadata(_PID_MONITOR, 0, "thread_name", "monitor")
    per_socket = meta.get("cores_per_socket") or 0
    for core in range(meta.get("n_cores") or 0):
        if (meta.get("sockets") or 1) > 1:
            track = f"core {core} (socket {core // per_socket})"
        else:
            track = f"core {core}"
        metadata(_PID_CORES, core, "thread_name", track)

    seen_tids = set()
    for event in trace_data["events"]:
        kind = event["kind"]
        ts = _microseconds(trace_data, event["ts"])
        args = {k: v for k, v in event.items()
                if k not in ("kind", "ts")}
        if kind in _CORE_KINDS:
            pid, tid = _PID_CORES, event.get("core", 0)
        elif kind in _MONITOR_KINDS:
            pid, tid = _PID_MONITOR, 0
        elif kind == "barrier":
            pid, tid = _PID_THREADS, (event.get("tids") or [0])[0]
        else:
            pid, tid = _PID_THREADS, event.get("tid", 0)
        if pid == _PID_THREADS and tid not in seen_tids:
            seen_tids.add(tid)
            metadata(_PID_THREADS, tid, "thread_name", f"thread {tid}")
        out.append({"ph": "i", "s": "t", "name": kind, "cat": kind,
                    "pid": pid, "tid": tid, "ts": ts, "args": args})

    document = {"traceEvents": out, "displayTimeUnit": "ms",
                "otherData": {"version": trace_data["version"],
                              "program": meta.get("program"),
                              "system": meta.get("system")}}
    with open(path, "w") as fh:
        json.dump(document, fh, sort_keys=True)
    return path
