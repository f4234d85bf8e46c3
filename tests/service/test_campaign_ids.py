"""Campaign names and ids become file names under the service root.

A name is the stem of a derived campaign id, and an id names the
inbox spec and the campaign state file.  One that is not a plain file
name (``[A-Za-z0-9][A-Za-z0-9._-]*``) is refused before anything is
written: by the spec, the client, the service, the inbox and
``submit``, which prints one line and exits 2.
"""

import asyncio
import json
import os

import pytest

from repro.errors import CampaignSpecError
from repro.eval import parallel
from repro.eval.cli import main
from repro.service import CampaignService, CampaignSpec, ServiceClient


def tiny_spec():
    return CampaignSpec(workloads=("histogram",), scale=0.05)


def files_under(path):
    """Every file below ``path``, relative to it, sorted."""
    return sorted(os.path.relpath(os.path.join(directory, name), path)
                  for directory, _, names in os.walk(path)
                  for name in names)


@pytest.mark.parametrize("argv, error", [
    (["--workloads", "histogram", "--name", "a/b"],
     "bad campaign name 'a/b'"),
    (["--workloads", "histogram", "--name", "../campaigns/evil"],
     "bad campaign name '../campaigns/evil'"),
    (["--workloads", "histogram", "--id", "../x"],
     "bad campaign id '../x'"),
    (["--workloads", "histogram", "--id", "../x", "--run"],
     "bad campaign id '../x'"),
    (["--workloads", "nope"], "unknown workload 'nope'"),
    (["old-spec.json"], "kind"),
], ids=["name-slash", "name-escape", "id-escape", "id-escape-run",
        "unknown-workload", "retired-field"])
def test_submit_refuses_with_one_line_and_writes_nothing(
        capsys, monkeypatch, tmp_path, argv, error):
    monkeypatch.chdir(tmp_path)
    old = dict(tiny_spec().to_dict(), kind="grid")
    (tmp_path / "old-spec.json").write_text(json.dumps(old))

    assert main(["submit", "--root", "svc"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("submit: ") and err.count("\n") == 1
    assert error in err
    assert files_under(str(tmp_path)) == ["old-spec.json"]


class TestClientAndService:
    def test_client_refuses_an_id_outside_the_inbox(self, tmp_path):
        client = ServiceClient(root=str(tmp_path / "svc"))
        with pytest.raises(CampaignSpecError, match="campaign id"):
            client.submit(tiny_spec(), campaign_id="../../outside")
        assert files_under(str(tmp_path)) == []

    @pytest.mark.parametrize("campaign_id", ["a/b", "../x", ".x"])
    def test_service_refuses_an_id_that_is_not_a_file_name(
            self, tmp_path, campaign_id):
        service = CampaignService(root=str(tmp_path / "svc"))
        with pytest.raises(CampaignSpecError, match="campaign id"):
            service.reserve_campaign_id(tiny_spec(), campaign_id)
        with pytest.raises(CampaignSpecError, match="campaign id"):
            service.submit(tiny_spec(), campaign_id)
        assert files_under(str(tmp_path)) == []

    @pytest.mark.parametrize("campaign_id", ["../../other/x", "a/b", ".x"])
    def test_status_and_results_refuse_an_id_that_is_not_a_file_name(
            self, capsys, tmp_path, campaign_id):
        """The read side checks an id as the write side does: a state
        file outside ``campaigns/`` is never read."""
        other = tmp_path / "other"
        other.mkdir()
        (other / "x.json").write_text(json.dumps(
            {"format": "repro-campaign/1", "id": "x",
             "status": "completed"}))
        root = tmp_path / "svc"
        service = CampaignService(root=str(root))
        for read in (service.status, service.results):
            with pytest.raises(CampaignSpecError, match="campaign id"):
                read(campaign_id)
        for command in ("status", "results"):
            assert main([command, campaign_id, "--root", str(root)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"{command}: bad campaign id ")
            assert err.count("\n") == 1

    def test_unnamed_campaigns_get_grid_ids(self, tmp_path):
        spec = tiny_spec()
        client = ServiceClient(root=str(tmp_path / "svc"))
        assert client.submit(spec) == f"grid-{spec.digest()}-1"
        assert client.submit(spec) == f"grid-{spec.digest()}-2"

    def test_inbox_spec_whose_name_is_no_id_is_rejected(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr(parallel, "_run_cell",
                            lambda cell: dict(cell, ran=True))
        service = CampaignService(root=str(tmp_path / "svc"), jobs=1)
        tiny_spec().save(os.path.join(service.inbox_dir, "a b.json"))
        tiny_spec().save(service._inbox_path("good"))

        done = asyncio.run(service.serve(once=True))
        assert [job.id for job in done] == ["good"]
        assert sorted(os.listdir(service.inbox_dir)) == \
            ["a b.json.rejected"]
        assert os.listdir(service.campaigns_dir) == ["good.json"]
