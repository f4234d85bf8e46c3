"""`reproduce` on a cut-down artifact list (Table 2 and a stub) in a
scratch results directory: nothing here simulates a workload."""

import subprocess
from pathlib import Path

import pytest

from repro.eval import claims
from repro.eval.cli import main
from repro.eval.experiments import ExperimentResult

REPO = Path(__file__).resolve().parents[2]


def stub(value):
    return lambda made: ExperimentResult("stub", {"value": value},
                                         "stub table")


def stub_claim(result):
    assert result.data["value"] > 1, "planted: value too small"


@pytest.fixture
def results(tmp_path, monkeypatch, capsys):
    """A results directory holding what the cut-down list prints."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    monkeypatch.setattr(claims, "ARTIFACTS", {
        "table2": claims.ARTIFACTS["table2"], "stub": stub(2)})
    monkeypatch.setitem(claims.CLAIMS, "stub", stub_claim)
    assert main(["reproduce"]) == 1        # nothing committed yet
    capsys.readouterr()
    return tmp_path


def test_unchanged_files_exit_zero(results, capsys):
    before = (results / "table2.txt").read_bytes()
    assert main(["reproduce"]) == 0
    assert "every claim holds" in capsys.readouterr().out
    assert (results / "table2.txt").read_bytes() == before


@pytest.mark.parametrize("damage", ["tamper", "delete"])
def test_changed_file_exits_one_named_and_rewritten(results, capsys,
                                                    damage):
    path = results / "stub.txt"
    if damage == "tamper":
        path.write_text("stub table, edited by hand\n")
    else:
        path.unlink()
    assert main(["reproduce"]) == 1
    out = capsys.readouterr().out
    assert str(path) in out and "table2.txt" not in out
    assert path.read_text() == "stub table\n"


def test_failing_claim_exits_one_with_its_message(results, capsys,
                                                  monkeypatch):
    monkeypatch.setitem(claims.ARTIFACTS, "stub", stub(1))
    assert main(["reproduce"]) == 1
    out = capsys.readouterr().out
    [failed] = [line for line in out.splitlines()
                if line.startswith("claim failed: stub")]
    assert "planted: value too small" in failed
    assert "stub.txt" not in out            # the file itself is unchanged


def test_artifacts_are_the_committed_tables():
    try:
        listed = subprocess.run(
            ["git", "ls-files", "results/*.txt"], cwd=REPO,
            capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    assert {Path(path).stem for path in listed} == set(claims.ARTIFACTS)
    # Table 2's claims are the model's tests, not a result's
    assert set(claims.ARTIFACTS) - set(claims.CLAIMS) == {"table2"}
