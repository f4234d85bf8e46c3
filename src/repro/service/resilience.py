"""Service resilience: one replay, then quarantine.

Every campaign cell is a deterministic simulation, so one replay is
enough to tell a harness fault from a poison cell (Aviram et al.,
*Efficient System-Enforced Deterministic Parallelism*, in PAPERS.md).
The policy lives in two places that each do one thing:

- :func:`repro.eval.parallel.run_cells_recorded` replays a cell whose
  attempt raised exactly once, serially in the parent, in pooled and
  serial runs alike;
- :class:`ResilienceSupervisor` quarantines a cell at once when it
  fails its replay: a persisted ``repro-quarantine/1`` entry keyed by
  cell digest, carrying the cell's replay kwargs.  Quarantined digests
  are skipped (classified ``quarantined``, never cached) until
  released through the ``quarantine`` CLI subcommand.

Cells that a dead worker never finished run again in the parent; that
recovery is not a replay and does not count in ``service.retry``.  A
timed-out cell is neither cached nor quarantined: its campaign ends
``failed`` and the next submission runs the cell again.

The supervision record, ``repro-service-state/1``, is the sorted
quarantine set.  It holds nothing host-dependent, so it is
byte-identical across ``REPRO_JOBS`` settings.
"""

import json
import os
import re
from typing import Any, Dict, List, Optional

from repro.eval.parallel import CELL_FAILED, CellRecord
from repro.service.store import write_json

#: Versioned quarantine-entry format tag.
QUARANTINE_FORMAT = "repro-quarantine/1"

#: Versioned supervision-state format tag.
SERVICE_STATE_FORMAT = "repro-service-state/1"

#: Cell classification for digests held in quarantine.
CELL_QUARANTINED = "quarantined"

#: Cell-entry source for quarantine skips (neither cache nor pool).
SOURCE_QUARANTINE = "quarantine"

#: A quarantine key: a cell digest, 64 lowercase hex characters.
DIGEST_PATTERN = re.compile(r"[0-9a-f]{64}")


class Quarantine:
    """Persisted poison-cell registry keyed by cell digest.

    One ``repro-quarantine/1`` JSON file per digest under ``root``;
    entries carry the failing cell's replay kwargs so the ``run`` CLI
    can reproduce the failure, and survive service restarts until
    explicitly released.
    """

    def __init__(self, root: str) -> None:
        self.root = root

    def path(self, digest: str) -> str:
        """Where the entry for ``digest`` lives.  Raises ``ValueError``
        for anything that is not a 64-hex digest, so no caller can
        name a file outside the quarantine directory."""
        if not DIGEST_PATTERN.fullmatch(digest):
            raise ValueError(
                f"bad digest {digest!r} (want 64 hex characters)")
        return os.path.join(self.root, f"{digest}.json")

    def add(self, digest: str, cell: Dict[str, Any], campaign_id: str,
            attempts: int, reason: str, error: str = "") -> str:
        """Persist one poison cell; returns the entry path."""
        entry = {"format": QUARANTINE_FORMAT, "digest": digest,
                 "campaign": campaign_id, "cell": dict(cell),
                 "attempts": attempts, "reason": reason,
                 "error": error}
        return write_json(self.path(digest), entry)

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The quarantine entry for ``digest``, or None."""
        path = self.path(digest)
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict) \
                or data.get("format") != QUARANTINE_FORMAT:
            return None
        return data

    def contains(self, digest: str) -> bool:
        """Whether ``digest`` is currently quarantined."""
        return self.get(digest) is not None

    def digests(self) -> List[str]:
        """Every quarantined digest, sorted."""
        if not os.path.isdir(self.root):
            return []
        return sorted(name[:-len(".json")]
                      for name in os.listdir(self.root)
                      if name.endswith(".json")
                      and DIGEST_PATTERN.fullmatch(name[:-len(".json")]))

    def release(self, digest: str) -> bool:
        """Drop ``digest`` from quarantine; False when unknown."""
        path = self.path(digest)
        try:
            os.remove(path)
        except OSError:
            return False
        return True


class ResilienceSupervisor:
    """The failure policy of one service root.

    The scheduler asks it which digests to skip and hands it every
    executed cell's record; it counts replays, quarantines cells that
    failed theirs, and keeps ``<root>/service-state.json`` (the
    ``repro-service-state/1`` record) in step with the quarantine.
    """

    def __init__(self, root: str, metrics: Any) -> None:
        self.root = root
        self.metrics = metrics
        self.quarantine = Quarantine(os.path.join(root, "quarantine"))
        self.state_path = os.path.join(root, "service-state.json")

    def is_quarantined(self, digest: str) -> bool:
        """Whether ``digest`` must be skipped (held in quarantine)."""
        return self.quarantine.contains(digest)

    def classify(self, job: Any, digest: str, record: CellRecord) -> str:
        """The cell's status after its attempt (and replay).

        A replayed cell counts in ``service.retry``.  A cell that
        failed its replay is quarantined at once — its status becomes
        ``quarantined`` — and the supervision record is rewritten.
        Every other status passes through.
        """
        if record.replayed:
            self.metrics.counter("service.retry").inc()
        if record.status != CELL_FAILED:
            return record.status
        # two executions: the cell's attempt and its replay
        self.quarantine.add(digest, record.cell, job.id, attempts=2,
                            reason="failed its replay",
                            error=record.error)
        self.metrics.counter("service.quarantined").inc()
        self.save_state()
        return CELL_QUARANTINED

    def snapshot(self) -> Dict[str, Any]:
        """The deterministic ``repro-service-state/1`` document."""
        return {"format": SERVICE_STATE_FORMAT,
                "quarantined": self.quarantine.digests()}

    def save_state(self) -> str:
        """Atomically persist the supervision record; returns its path."""
        return write_json(self.state_path, self.snapshot())
