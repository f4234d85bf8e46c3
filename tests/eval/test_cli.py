"""CLI argument handling (no heavy experiments run here)."""

import pytest

from repro.eval.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_every_experiment_has_a_subcommand(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args(
                [name] if name == "table2" else [name, "--scale", "0.1"])
            assert args.command == name

    def test_run_subcommand(self):
        args = build_parser().parse_args(
            ["run", "histogram", "tmi-protect", "--scale", "0.2"])
        assert args.workload == "histogram"
        assert args.system == "tmi-protect"
        assert args.scale == 0.2

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom", "pthreads"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_fuzz_defaults_to_smoke_mode(self):
        args = build_parser().parse_args(["fuzz", "--seeds", "16",
                                          "--budget", "60"])
        assert args.workload is None
        assert args.seeds == 16
        assert args.budget == 60.0

    def test_fuzz_targeted(self):
        args = build_parser().parse_args(
            ["fuzz", "racy-flag", "--policy", "pct", "--seeds", "32",
             "--max-cycles", "5000", "--no-sanitize"])
        assert args.workload == "racy-flag"
        assert args.policy == "pct"
        assert args.max_cycles == 5000
        assert args.no_sanitize

    def test_replay_takes_artifact_path(self):
        args = build_parser().parse_args(["replay", "r/fuzz/a.json"])
        assert args.artifact == "r/fuzz/a.json"


class TestExecution:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "histogramfs" in out and "tmi-protect" in out

    def test_table2_renders(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "TSO" in out
        assert (tmp_path / "table2.txt").exists()

    @pytest.mark.parametrize("argv, kwargs", [
        ([], {}), (["--scale", "0.05"], {"scale": 0.05})])
    def test_table1_grids_run_at_scale_or_their_defaults(
            self, monkeypatch, argv, kwargs):
        from repro.eval import experiments
        calls = []
        fig7 = experiments.ExperimentResult("figure7", {
            "sheriff_compatible": 11, "workloads": {},
            "geomean": {"sheriff-detect": 1.5, "tmi-detect": 1.0}}, "")
        fig9 = experiments.ExperimentResult(
            "figure9", {"geomean": {"manual": 2.0}}, "")
        for fake in (fig7, fig9):
            monkeypatch.setattr(experiments, fake.name,
                                lambda fake=fake, **given: calls.append(
                                    (fake.name, given)) or fake)
        assert main(["table1", "--no-save", *argv]) == 0
        assert calls == [("figure7", kwargs), ("figure9", kwargs)]

    def test_run_small_workload(self, capsys):
        assert main(["run", "swaptions", "pthreads",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "runtime" in out

    def test_fuzz_then_replay_round_trip(self, capsys, tmp_path,
                                         monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        # a racy workload exits nonzero (findings are failures)...
        assert main(["fuzz", "racy-flag", "--seeds", "1",
                     "--scale", "1.0", "--jobs", "1",
                     "--out-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "findings=1" in out
        artifact = next(tmp_path.glob("*.json"))
        # ...the summary carries the artifact path (the replay handle)
        assert str(artifact) in out
        # ...and replaying its artifact reproduces the finding
        assert main(["replay", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "reproduced" in out

    def test_replay_failure_prints_artifact_path(self, capsys, tmp_path,
                                                 monkeypatch):
        import json

        monkeypatch.setenv("REPRO_JOBS", "1")
        assert main(["fuzz", "racy-flag", "--seeds", "1",
                     "--scale", "1.0", "--jobs", "1",
                     "--out-dir", str(tmp_path)]) == 1
        capsys.readouterr()
        artifact = next(tmp_path.glob("*.json"))
        # corrupt the recorded failure so the replay cannot match it
        data = json.loads(artifact.read_text())
        data["failure"]["kind"] = "deadlock"
        data["failure"]["signatures"] = []
        artifact.write_text(json.dumps(data))
        assert main(["replay", str(artifact)]) == 1
        out = capsys.readouterr().out
        assert "DID NOT reproduce" in out
        # the non-reproducing artifact's path is the actionable handle
        assert str(artifact) in out

    def test_trace_subcommand_writes_chrome_trace(self, capsys,
                                                  tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        assert main(["trace", "swaptions", "pthreads",
                     "--scale", "0.05", "--out", str(out_path)]) == 0
        printed = capsys.readouterr().out
        assert str(out_path) in printed
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]

    def test_metrics_subcommand_prints_snapshot(self, capsys):
        import json

        assert main(["metrics", "swaptions", "pthreads",
                     "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        snapshot = json.loads(out)
        assert snapshot["version"] == "repro-metrics/1"
        assert "machine.cycles" in snapshot["gauges"]

    def test_run_profile_prints_attribution(self, capsys):
        assert main(["run", "swaptions", "pthreads", "--scale", "0.05",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "self-profile" in out
        assert "sim" in out


class TestLintGate:
    """`lint --format json` and `--fail-on` are the CI contract."""

    def test_json_output_parses_with_format_tag(self, capsys):
        import json
        assert main(["lint", "histogramfs", "--scale", "0.05",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["format"] == "repro-lint-report/1"
        assert doc["workload"] == "histogramfs"

    def test_fail_on_info_trips_on_predictions(self, capsys):
        # histogramfs lints ok (no errors) but carries info-level
        # false-sharing predictions -> gate at info must fail
        assert main(["lint", "histogramfs", "--scale", "0.05",
                     "--fail-on", "info"]) == 1
        assert main(["lint", "histogramfs", "--scale", "0.05",
                     "--fail-on", "warning"]) == 0
        capsys.readouterr()

    def test_fail_on_clean_workload_passes(self, capsys):
        assert main(["lint", "swaptions", "--scale", "0.05",
                     "--fail-on", "info"]) == 0
        capsys.readouterr()


class TestRepairCommand:
    def test_repair_plans_one_workload(self, capsys, tmp_path):
        import json
        assert main(["repair", "racy-counters", "--scale", "0.05",
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "racy-counters" in out and "split" in out
        saved = list(tmp_path.glob("*.json"))
        assert saved, out
        assert json.loads(saved[0].read_text())["format"] == \
            "repro-repair-plan/1"


class TestQuarantineInspect:
    def test_replay_command_runs_the_stored_cell(self, capsys, tmp_path,
                                                 monkeypatch):
        """A chaos-kind cell carries faults: the printed command must
        run that exact cell, not a bare ``run <name> <system>``."""
        import shlex

        from repro.eval import runner
        from repro.service import CampaignSpec, Quarantine

        cell = CampaignSpec(workloads=("histogram",),
                            systems=("tmi-protect",), kind="chaos",
                            seeds=(4,), scale=0.05,
                            nthreads=2).cells()[0]
        assert cell["faults"]["seed"] == 4
        Quarantine(str(tmp_path / "quarantine")).add(
            "ab" * 32, cell, "chaos-1", attempts=2,
            reason="failed its replay")
        assert main(["quarantine", "inspect", "abab",
                     "--root", str(tmp_path)]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("replay: ")
        argv = shlex.split(line[len("replay: "):])
        assert argv[:2] == ["python", "-c"]
        ran = []

        def fake_run(**kwargs):
            ran.append(kwargs)
            return runner.RunOutcome("histogram", "tmi-protect", "ok")

        monkeypatch.setattr(runner, "run_workload", fake_run)
        exec(argv[2], {})
        assert ran == [cell]
        capsys.readouterr()
