"""Harness-level fault seam: deterministic poison cells, worker kills.

The PR 5 fault injector perturbs the *simulated* substrate (perf
buffers, ptrace, shm) inside a run; this seam perturbs the *harness*
around the run, which is what the service-resilience chaos gate needs:
cells that fail every attempt (poison — quarantine fodder) and cells
that kill their worker process outright (a real
``BrokenProcessPool``).

A :class:`HarnessFaultPlan` is a versioned ``repro-harness-faults/1``
JSON artifact keyed by cell digest.  Arming is via the
``REPRO_HARNESS_FAULTS`` environment variable naming the plan file —
the one channel that reaches pool worker processes — and
:func:`repro.eval.parallel._run_cell` applies the plan before the
workload runs:

- ``poison`` digests raise :class:`PoisonError` in every process, so
  the cell fails its attempt and its one replay identically under
  pooled and serial execution;
- ``kill`` digests call ``os._exit`` *only in a worker process* (the
  plan records the arming process's pid), so pooled execution loses a
  worker — and the hardened grid's re-run in the parent then
  succeeds — while serial execution never fires the kill.  Either
  way the cell's final result is its one deterministic value.
"""

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import FaultPlanError

#: Environment variable naming the armed plan file (reaches workers).
HARNESS_FAULTS_ENV = "REPRO_HARNESS_FAULTS"

#: Versioned harness-fault-plan format tag.
HARNESS_FAULTS_FORMAT = "repro-harness-faults/1"

#: Exit code a killed worker dies with (distinctive in pool forensics).
KILL_EXIT_CODE = 13


class PoisonError(RuntimeError):
    """The deterministic failure an armed poison cell raises."""


@dataclass
class HarnessFaultPlan:
    """Digest-keyed harness faults: poison raises, worker kills."""

    #: digest -> failure message raised as :class:`PoisonError`.
    poison: Dict[str, str] = field(default_factory=dict)
    #: digests whose worker process exits hard (pool-child only).
    kill: Tuple[str, ...] = ()
    #: Pid of the arming (parent) process; kills never fire in it.
    parent_pid: int = 0

    def __post_init__(self) -> None:
        self.kill = tuple(self.kill)

    def apply(self, cell: Dict[str, Any]) -> None:
        """Fire the plan's fault for ``cell``, if any."""
        # lazy: repro.service.store transitively imports the harness's
        # caller (repro.eval.parallel); binding at call time keeps the
        # import graph acyclic
        from repro.service.store import cell_digest
        digest = cell_digest(cell)
        if digest in self.kill and os.getpid() != self.parent_pid:
            os._exit(KILL_EXIT_CODE)
        message = self.poison.get(digest)
        if message is not None:
            raise PoisonError(message)

    def to_dict(self) -> Dict[str, Any]:
        """The artifact payload, format tag included."""
        return {"format": HARNESS_FAULTS_FORMAT,
                "poison": dict(self.poison),
                "kill": list(self.kill),
                "parent_pid": self.parent_pid}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HarnessFaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (format-guarded)."""
        if not isinstance(data, dict) \
                or data.get("format") != HARNESS_FAULTS_FORMAT:
            tag = data.get("format") if isinstance(data, dict) else None
            raise FaultPlanError(
                f"unsupported harness fault plan format {tag!r} "
                f"(expected {HARNESS_FAULTS_FORMAT})")
        return cls(poison=dict(data.get("poison", {})),
                   kill=tuple(data.get("kill", ())),
                   parent_pid=int(data.get("parent_pid", 0)))

    def save(self, path: str) -> str:
        """Write the plan, stamping this process as the kill-exempt
        parent; returns ``path``."""
        self.parent_pid = os.getpid()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str) -> "HarnessFaultPlan":
        """Read one saved plan (typed errors on malformed input)."""
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise FaultPlanError(
                f"harness fault plan {path}: unreadable ({exc})") \
                from exc
        return cls.from_dict(data)


#: Per-process plan memo: path -> loaded plan (workers load once).
_PLANS: Dict[str, HarnessFaultPlan] = {}


def active_plan() -> Optional[HarnessFaultPlan]:
    """The armed plan per ``REPRO_HARNESS_FAULTS``, or None.

    Misconfiguration (an armed path that does not parse) raises
    :class:`~repro.errors.FaultPlanError` loudly rather than silently
    running chaos-free.
    """
    path = os.environ.get(HARNESS_FAULTS_ENV, "").strip()
    if not path:
        return None
    plan = _PLANS.get(path)
    if plan is None:
        plan = _PLANS[path] = HarnessFaultPlan.load(path)
    return plan
