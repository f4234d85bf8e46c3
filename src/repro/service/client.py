"""File-based campaign client: submit/status against a service root.

The client and the service share nothing but a directory tree (see
:mod:`repro.service.service` for the layout), which is what lets
campaigns survive process restarts on either side: a submission is an
atomic ``link(2)`` of the spec file into ``<root>/inbox/``, status is
a read of ``<root>/campaigns/<id>.json``, and results come straight
out of the content-addressed store.  A client can therefore submit
while the service is down — the spec waits in the inbox until the
next ``serve`` pass.
"""

import os

from repro.service.service import CampaignService
from repro.service.spec import NAME_PATTERN


class ServiceClient:
    """A client handle on one service root."""

    def __init__(self, root=None):
        # the service object doubles as the directory-layout oracle;
        # the client never touches its scheduler
        self._service = CampaignService(root=root)
        self.root = self._service.root

    def submit(self, spec, campaign_id=None):
        """Spool ``spec`` into the service inbox; returns the id.

        The spec file is written to a temp name and atomically linked
        into place, so a polling service never reads a half-written
        spec and two clients racing on the same spec digest can never
        overwrite each other's submission (each gets its own ordinal;
        an explicit duplicate ``campaign_id`` raises
        ``FileExistsError`` instead of clobbering).
        """
        return self._service.reserve_campaign_id(
            spec, campaign_id=campaign_id)

    def status(self, campaign_id):
        """The campaign's state document, or None when unknown."""
        return self._service.status(campaign_id)

    def campaign_ids(self):
        """Every campaign id known under this service root (sorted)."""
        out = []
        for fname in sorted(os.listdir(self._service.campaigns_dir)):
            if fname.endswith(".json") \
                    and NAME_PATTERN.fullmatch(fname[:-len(".json")]):
                out.append(fname[:-len(".json")])
        return out

    def results(self, campaign_id):
        """Per-cell results (see
        :meth:`repro.service.CampaignService.results`)."""
        return self._service.results(campaign_id)
