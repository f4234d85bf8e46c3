"""CampaignSpec: eager validation, expansion, versioned round-trip."""

import json

import pytest

from repro.errors import CampaignSpecError
from repro.service import SPEC_FORMAT, CampaignSpec
from repro.workloads import repair_suite_names


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

    # a misspelt key, and a perf knob that is not a TmiConfig field
    @pytest.mark.parametrize("key", ["perod", "perf_queue_limit"])
    def test_unknown_config_key_rejected(self, key):
        with pytest.raises(CampaignSpecError, match="config key"):
            grid_spec(configs=({key: 100},))

    def test_known_config_keys_accepted(self):
        spec = grid_spec(configs=({"period": 50, "huge_pages": False},))
        assert spec.configs[0]["period"] == 50

    def test_bad_scale_rejected(self):
        with pytest.raises(CampaignSpecError, match="scale"):
            grid_spec(scale=0)

    def test_empty_workloads_rejected(self):
        with pytest.raises(CampaignSpecError, match=">= 1 workload"):
            CampaignSpec(workloads=())

    @pytest.mark.parametrize("overrides, error", [
        (dict(nthreads=0), "nthreads"),
        (dict(nthreads=-3), "nthreads"),
        (dict(nthreads="x"), "nthreads"),
        (dict(nthreads=True), "nthreads"),
        (dict(configs=({"period": "x"},)), "must be a number"),
        (dict(scale=True), "scale"),
        (dict(priority=True), "priority"),
    ], ids=["nthreads-zero", "nthreads-negative", "nthreads-word",
            "nthreads-bool", "config-word", "scale-bool",
            "priority-bool"])
    def test_field_that_would_fail_in_a_worker_rejected(self, overrides,
                                                        error):
        """Each of these specs used to be accepted and then raise in
        every cell (or run with a bool as a number)."""
        with pytest.raises(CampaignSpecError, match=error):
            grid_spec(**overrides)

    def test_detection_interval_the_detector_cannot_keep_up_with(self):
        """Campaign cells run with the default cost model, whose
        detector charges 50,000 cycles per interval."""
        with pytest.raises(CampaignSpecError,
                           match="20000 .*detect_fixed 50000"):
            grid_spec(configs=({"detect_interval_cycles": 20_000},))
        spec = grid_spec(configs=({"detect_interval_cycles": 50_001},))
        assert spec.configs[0]["detect_interval_cycles"] == 50_001

    def test_error_is_value_error(self):
        # argparse/except ValueError call sites keep working
        with pytest.raises(ValueError):
            grid_spec(systems=("xen",))

    @pytest.mark.parametrize("name", [
        "a/b", "../campaigns/evil", ".hidden", "-x", "a b", "a\\b",
        None])
    def test_name_that_is_not_a_file_name_rejected(self, name):
        """A name becomes part of the campaign id, and the id a file
        name under the service root."""
        with pytest.raises(CampaignSpecError, match="campaign name"):
            grid_spec(name=name)

    @pytest.mark.parametrize("name", ["", "t", "table1-repair",
                                      "v1.2_rc-3"])
    def test_plain_names_accepted(self, name):
        assert grid_spec(name=name).name == name


class TestCells:
    def test_grid_cross_product(self):
        cells = grid_spec().cells()
        assert len(cells) == 4
        assert {(c["name"], c["system"]) for c in cells} == {
            ("histogram", "pthreads"), ("histogram", "tmi-protect"),
            ("histogramfs", "pthreads"),
            ("histogramfs", "tmi-protect")}
        assert all(c["scale"] == 0.05 for c in cells)

    def test_repair_grid_is_its_cross_product_in_order(self):
        """The shape of the benchmark's Table 1 repair spec: exactly
        one ``{name, system, scale}`` dict per (workload, system),
        workload-major, so its store keys follow only the engine."""
        workloads = repair_suite_names()
        systems = ("pthreads", "manual", "sheriff-protect", "laser",
                   "tmi-protect")
        spec = CampaignSpec(workloads=workloads, systems=systems,
                            scale=0.1, name="table1-repair")
        assert spec.cells() == [
            {"name": w, "system": s, "scale": 0.1}
            for w in workloads for s in systems]

    def test_config_lands_in_cells(self):
        spec = grid_spec(configs=({"period": 25},),
                         workloads=("histogramfs",),
                         systems=("tmi-protect",))
        (cell,) = spec.cells()
        assert cell["config"] == {"period": 25}


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = grid_spec(priority=3, name="t", nthreads=2,
                         configs=({"period": 25}, {}))
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert clone.cells() == spec.cells()

    def test_file_round_trip(self, tmp_path):
        spec = grid_spec(configs=({"period": 50},), name="f")
        path = spec.save(str(tmp_path / "spec.json"))
        clone = CampaignSpec.load(path)
        assert clone.to_dict() == spec.to_dict()
        assert json.load(open(path))["format"] == SPEC_FORMAT

    @pytest.mark.parametrize("key, value", [
        ("tenant", ""), ("arrival", None), ("kind", "grid"),
        ("seeds", [None]), ("policy", "random"),
        ("fault_intensity", 0.5), ("meta", {})])
    def test_retired_fields_rejected(self, key, value):
        """Retired fields, each at the value the last spec that wrote
        it gave a grid: a document that still carries one fails with
        the typed error."""
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
