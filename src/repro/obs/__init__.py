"""Observability layer: structured tracing, metrics, per-layer profile.

Two zero-overhead-when-off tools attach to a run (see
``docs/ARCHITECTURE.md`` for how they sit in the layer map):

- :class:`Tracer` — an engine observer that streams versioned JSONL
  events and exports a Perfetto/``chrome://tracing`` ``trace.json``
  (one track per core, per thread, and per TMI monitor), covering
  HITM events, PEBS samples, detector decisions, T2P conversions, and
  PTSB commits/flushes;
- :class:`MetricsRegistry` — labeled counters/gauges/histograms with
  deterministic JSON snapshots, replacing the ad-hoc end-of-run stat
  dicts.

Tracing off is the default everywhere and costs nothing: observers
attach through ``Engine.attach_observer``, which charges zero cycles,
and the cycle-exactness goldens pin bit-identical results.

:func:`by_layer` and :func:`format_profile` roll a ``cProfile`` run of
one cell up into host self time per layer (the ``run --profile`` CLI
mode); nothing in the simulator is wrapped or patched for it.
"""

from repro.obs.metrics import (DEFAULT_BUCKETS, METRICS_VERSION, Counter,
                               Gauge, Histogram, MetricsRegistry)
from repro.obs.profile import by_layer, format_profile
from repro.obs.tracer import (TRACE_VERSION, Tracer, write_chrome_trace,
                              write_jsonl)

__all__ = [
    "DEFAULT_BUCKETS", "METRICS_VERSION", "Counter", "Gauge",
    "Histogram", "MetricsRegistry", "TRACE_VERSION", "Tracer",
    "by_layer", "format_profile", "write_chrome_trace", "write_jsonl",
]
