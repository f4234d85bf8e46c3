"""repro — a reproduction of TMI: Thread Memory Isolation for False
Sharing Repair (DeLozier, Eizenberg, Hu, Pokam, Devietti; MICRO-50,
2017).

The package is organized as the paper's system stack:

- :mod:`repro.sim` — simulated multicore machine: physical memory,
  per-process virtual address spaces with COW and huge pages, a MESI
  coherence directory that surfaces HITM events, and the cycle model;
- :mod:`repro.isa` / :mod:`repro.engine` — the tiny instruction set,
  generator-based threads, and the deterministic execution engine;
- :mod:`repro.oskit` — shm, /proc/pid/maps, perf/PEBS sampling, ptrace;
- :mod:`repro.alloc`, :mod:`repro.sync` — allocator and pthreads;
- :mod:`repro.core` — TMI itself: the detector, targeted PTSB repair,
  thread-to-process conversion, and code-centric consistency;
- :mod:`repro.baselines` — pthreads, Sheriff, and LASER;
- :mod:`repro.workloads` — the paper's 35 benchmarks plus cholesky;
- :mod:`repro.obs` — structured tracing, metrics, per-layer profiles;
- :mod:`repro.eval` — one entry point per table and figure.

Quickstart::

    from repro import Engine, TmiRuntime, get_workload

    program = get_workload("histogramfs").build()
    result = Engine(program, TmiRuntime("protect")).run()
    print(result.seconds, result.runtime_report["repaired"])
"""

from repro.baselines import LaserRuntime, PthreadsRuntime, SheriffRuntime
from repro.core import TmiConfig, TmiRuntime
from repro.engine import Engine, Program, RunResult
from repro.errors import ReproError
from repro.eval import run_workload
from repro.obs import MetricsRegistry, Tracer
from repro.sim import CostModel, Machine
from repro.workloads import get as get_workload

__version__ = "1.0.0"

__all__ = [
    "LaserRuntime", "PthreadsRuntime", "SheriffRuntime", "TmiConfig",
    "TmiRuntime", "Engine", "Program", "RunResult", "ReproError",
    "run_workload", "CostModel", "Machine", "MetricsRegistry",
    "Tracer", "get_workload", "__version__",
]
