"""Campaign service: experiment campaigns over the hardened grid.

Clients submit :class:`CampaignSpec` requests, each one grid of
(workload, system, config) cells; one scheduler streams their cells
through one hardened :mod:`repro.eval.parallel` worker pool per serve
pass, and a content-addressed :class:`ResultStore` serves any cell
that has ever been computed — keyed by a canonical digest of the
cell's kwargs plus an engine identity hashed from the code, so
resubmitted or overlapping campaigns get cached cells byte-identical
and free.  The store is also the only checkpoint: resuming a campaign
means running the cells it does not hold.  Schedule fuzzing and fault
injection are the ``fuzz`` and ``chaos`` commands, not campaigns.

Pieces:

- :mod:`repro.service.spec` — versioned ``repro-campaign-spec/1``
  requests, validated at submission time;
- :mod:`repro.service.store` — the content-addressed cell-result
  store, its canonical cache key and the code-derived engine identity;
- :mod:`repro.service.scheduler` — one priority heap drained
  synchronously through one pool per pass, per-cell checkpoints,
  per-campaign ``repro-campaign/1`` state, obs-layer progress;
- :mod:`repro.service.resilience` — the one failure policy: a cell
  that fails its one replay is quarantined (``repro-quarantine/1``),
  recorded in the ``repro-service-state/1`` supervision record;
- :mod:`repro.service.service` — the long-running service: file
  inbox, restart resume;
- :mod:`repro.service.client` — the client-side file protocol.

CLI: ``python -m repro.eval.cli
serve | submit | status | results | quarantine``.
See the service section of ``docs/ARCHITECTURE.md`` and the
"Running a campaign" walkthrough in ``EXPERIMENTS.md``.
"""

from repro.service.client import ServiceClient
from repro.service.resilience import (CELL_QUARANTINED,
                                      QUARANTINE_FORMAT,
                                      SERVICE_STATE_FORMAT,
                                      SOURCE_QUARANTINE, Quarantine,
                                      ResilienceSupervisor)
from repro.service.scheduler import (CAMPAIGN_FORMAT, COMPLETED,
                                     FAILED, PENDING, RUNNING,
                                     CampaignJob, CampaignScheduler)
from repro.service.service import TERMINAL, CampaignService
from repro.service.spec import SPEC_FORMAT, CampaignSpec
from repro.service.store import (STORE_FORMAT, ResultStore,
                                 canonical_form, cell_digest,
                                 engine_version, package_identity,
                                 payload_bytes, result_payload)

__all__ = [
    "CAMPAIGN_FORMAT", "CELL_QUARANTINED", "COMPLETED", "CampaignJob",
    "CampaignScheduler", "CampaignService", "CampaignSpec", "FAILED",
    "PENDING", "QUARANTINE_FORMAT", "Quarantine", "RUNNING",
    "ResilienceSupervisor", "ResultStore", "SERVICE_STATE_FORMAT",
    "SOURCE_QUARANTINE", "SPEC_FORMAT", "STORE_FORMAT",
    "ServiceClient", "TERMINAL", "canonical_form", "cell_digest",
    "engine_version", "package_identity",
    "payload_bytes", "result_payload",
]
