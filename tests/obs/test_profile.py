"""Per-layer profile: cProfile rolled up by layer, zero cycle impact."""

import cProfile

from repro.eval.cli import main
from repro.eval.runner import run_workload
from repro.obs import by_layer, format_profile


def _run_lines(capsys, *argv):
    assert main(["run", *argv]) == 0
    return capsys.readouterr().out.splitlines()


def _table(lines):
    """The profile table's layer rows (header and total dropped)."""
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("self-profile"))
    assert lines[-1].split()[0] == "total"
    return lines[start + 1:-1]


class TestAccounting:
    def test_format_profile_renders_from_plain_dict(self):
        text = format_profile({
            "sim": {"seconds": 0.1, "calls": 5},
            "engine": {"seconds": 0.3, "calls": 7},
            "other": {"seconds": 0.0, "calls": 0},
        })
        lines = text.splitlines()
        assert lines[0].startswith("self-profile")
        assert [line.split()[0] for line in lines[1:]] == \
            ["engine", "sim", "other", "total"]
        assert "75.0%" in lines[1] and "25.0%" in lines[2]
        assert lines[-1].split()[1] == "400.00"


class TestProfiledRun:
    def test_profiled_run_is_cycle_identical(self, capsys):
        argv = ("histogram", "pthreads", "--scale", "0.05")
        plain = _run_lines(capsys, *argv)
        profiled = _run_lines(capsys, *argv, "--profile")
        assert profiled[:len(plain)] == plain
        assert profiled[len(plain)].startswith("self-profile")
        assert _table(profiled)

    def test_profile_attributes_known_subsystems(self):
        profiler = cProfile.Profile()
        outcome = profiler.runcall(run_workload, "shptr-relaxed",
                                   "tmi-protect", scale=0.2)
        assert outcome.ok, outcome.detail
        report = by_layer(profiler)
        for layer in ("engine", "sim", "core", "oskit", "workloads"):
            assert report[layer]["calls"] > 0, layer
        total = sum(entry["seconds"] for entry in report.values())
        assert report.get("other", {"seconds": 0.0})["seconds"] \
            < 0.1 * total

    def test_shares_add_to_100_percent(self, capsys):
        # the static-repair planner runs before the engine; its time
        # is a row of the table, not outside the total
        rows = _table(_run_lines(capsys, "canneal", "static-repaired",
                                 "--scale", "0.1", "--profile"))
        shares = [float(row.split()[3].rstrip("%")) for row in rows]
        assert abs(sum(shares) - 100.0) <= 0.5
        assert "analysis" in {row.split()[0] for row in rows}
