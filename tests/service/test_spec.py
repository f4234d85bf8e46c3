"""CampaignSpec: eager validation, expansion, versioned round-trip."""

import json

import pytest

from repro.errors import CampaignSpecError
from repro.service import SPEC_FORMAT, CampaignSpec


def grid_spec(**overrides):
    kwargs = dict(workloads=("histogram", "histogramfs"),
                  systems=("pthreads", "tmi-protect"), scale=0.05)
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(CampaignSpecError, match="unknown workload"):
            grid_spec(workloads=("histogram", "nope"))

    def test_unknown_system_rejected(self):
        with pytest.raises(CampaignSpecError, match="unknown system"):
            grid_spec(systems=("pthreads", "xen"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(CampaignSpecError, match="campaign kind"):
            grid_spec(kind="sweep")

    def test_unknown_config_key_rejected(self):
        with pytest.raises(CampaignSpecError, match="config key"):
            grid_spec(configs=({"perod": 100},))

    def test_known_config_keys_accepted(self):
        spec = grid_spec(configs=({"period": 50, "huge_pages": False},))
        assert spec.configs[0]["period"] == 50

    def test_bad_scale_rejected(self):
        with pytest.raises(CampaignSpecError, match="scale"):
            grid_spec(scale=0)

    def test_fuzz_needs_integer_seeds(self):
        with pytest.raises(CampaignSpecError, match="integer seeds"):
            grid_spec(kind="fuzz")
        with pytest.raises(CampaignSpecError, match="seeds must be"):
            grid_spec(kind="fuzz", seeds=("a",))

    def test_empty_workloads_rejected(self):
        with pytest.raises(CampaignSpecError, match=">= 1 workload"):
            CampaignSpec(workloads=())

    def test_error_is_value_error(self):
        # argparse/except ValueError call sites keep working
        with pytest.raises(ValueError):
            grid_spec(kind="sweep")


class TestCells:
    def test_grid_cross_product(self):
        cells = grid_spec().cells()
        assert len(cells) == 4
        assert {(c["name"], c["system"]) for c in cells} == {
            ("histogram", "pthreads"), ("histogram", "tmi-protect"),
            ("histogramfs", "pthreads"),
            ("histogramfs", "tmi-protect")}
        assert all(c["scale"] == 0.05 for c in cells)

    def test_grid_ignores_seeds(self):
        # a deterministic grid cell has one result; replica seeds
        # would only re-derive identical digests
        assert len(grid_spec(seeds=(0, 1, 2)).cells()) == 4

    def test_fuzz_cells_carry_schedule(self):
        spec = grid_spec(kind="fuzz", seeds=(3, 4), policy="pct",
                         systems=("pthreads",),
                         workloads=("racy-flag",))
        cells = spec.cells()
        assert len(cells) == 2
        assert cells[0]["schedule"] == {"policy": "pct", "seed": 3}
        assert cells[1]["schedule"]["seed"] == 4

    def test_chaos_cells_carry_faults(self):
        spec = grid_spec(kind="chaos", seeds=(7,),
                         systems=("tmi-protect",),
                         workloads=("histogramfs",))
        (cell,) = spec.cells()
        assert cell["faults"]["seed"] == 7
        assert cell["faults"]["rates"]          # stock table, scaled

    def test_config_lands_in_cells(self):
        spec = grid_spec(configs=({"period": 25},),
                         workloads=("histogramfs",),
                         systems=("tmi-protect",))
        (cell,) = spec.cells()
        assert cell["config"] == {"period": 25}


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = grid_spec(priority=3, name="t", meta={"owner": "ci"})
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.cells() == spec.cells()

    def test_file_round_trip(self, tmp_path):
        spec = grid_spec(kind="fuzz", seeds=(1, 2))
        path = spec.save(str(tmp_path / "spec.json"))
        clone = CampaignSpec.load(path)
        assert clone.to_dict() == spec.to_dict()
        assert json.load(open(path))["format"] == SPEC_FORMAT

    @pytest.mark.parametrize("key, value", [("tenant", ""),
                                            ("arrival", None)])
    def test_retired_fields_rejected(self, key, value):
        """Tenant and arrival fields were removed: a document that
        still carries them fails with the typed error."""
        data = dict(grid_spec().to_dict(), **{key: value})
        with pytest.raises(CampaignSpecError, match=key):
            CampaignSpec.from_dict(data)

    def test_wrong_format_tag_rejected(self):
        data = grid_spec().to_dict()
        data["format"] = "something-else/9"
        with pytest.raises(CampaignSpecError, match="unsupported"):
            CampaignSpec.from_dict(data)

    def test_corrupted_file_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"format": "repro-campaign-spec/1", trunc')
        with pytest.raises(CampaignSpecError, match="corrupted"):
            CampaignSpec.load(str(path))

    def test_missing_file_raises_typed_error(self, tmp_path):
        # the documented contract is typed errors on bad input — a
        # missing path must not leak a raw FileNotFoundError
        missing = str(tmp_path / "nope.json")
        with pytest.raises(CampaignSpecError, match="nope.json"):
            CampaignSpec.load(missing)

    def test_digest_stable_and_distinct(self):
        assert grid_spec().digest() == grid_spec().digest()
        assert grid_spec().digest() != grid_spec(scale=0.1).digest()
