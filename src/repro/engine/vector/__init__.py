"""Vectorized batch execution core.

Lowers sequence ops to their per-shape constants
(:mod:`repro.isa.lowering`) and extrapolates whole lockstep windows of
uncontended, sync-free sequence dispatches at once, falling back to
the serial interpreter exactly where it would context-switch.  See
docs/ARCHITECTURE.md ("Vector execution core") for the compile/execute
split and the fallback-boundary contract.
"""

from repro.engine.vector.compiler import RunCompiler
from repro.engine.vector.executor import VectorExecutor

__all__ = ["RunCompiler", "VectorExecutor"]
