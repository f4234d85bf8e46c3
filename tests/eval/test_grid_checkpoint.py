"""The shard step: the result store is the grid's only checkpoint.

:func:`repro.eval.grid.run_checkpointed` puts every ok cell in the
store before it returns, so resuming a grid means running the cells
the store does not hold.
"""

import os

import pytest

from repro.eval import parallel
from repro.eval.grid import run_checkpointed, summarize_outcome
from repro.service import ResultStore, cell_digest


def _marker_cell(cell):
    """Fake ``run_workload``: fails until the cell's marker exists."""
    need = cell.get("need")
    if need and not os.path.exists(need):
        raise RuntimeError(f"marker {need} missing")
    return dict(cell, ran=True)


@pytest.fixture
def marker_pool(monkeypatch):
    monkeypatch.setattr(parallel, "_run_cell", _marker_cell)


class TestCellKey:
    """A cell's checkpoint key is its store digest."""

    def test_stable_across_dict_ordering(self, marker_pool, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        run_checkpointed([{"id": "a", "scale": 1}], store, jobs=1)
        # a resume that builds the same cell in another key order
        # finds the stored result
        reordered = {"scale": 1, "id": "a"}
        assert cell_digest(reordered) \
            == cell_digest({"id": "a", "scale": 1})
        assert store.get(cell_digest(reordered))["status"] == "ok"

    def test_distinct_cells_distinct_keys(self, marker_pool, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        cells = [{"id": "a", "scale": 1}, {"id": "a", "scale": 2}]
        run_checkpointed(cells, store, jobs=1)
        assert cell_digest(cells[0]) != cell_digest(cells[1])
        assert store.stats()["entries"] == 2
        # a cell that differs in one value was never checkpointed
        assert store.get(cell_digest({"id": "a", "scale": 3})) is None


class TestSummarize:
    def test_none_passthrough(self):
        assert summarize_outcome(None) is None

    def test_foreign_outcome_tolerated(self):
        # store summaries must not explode on fake outcomes
        summary = summarize_outcome({"not": "a RunOutcome"})
        assert summary["status"] is None and summary["cycles"] is None


class TestResume:
    def test_failure_then_resume(self, marker_pool, tmp_path):
        marker = str(tmp_path / "marker")
        cells = [{"id": "good"}, {"id": "bad", "need": marker}]
        store = ResultStore(str(tmp_path / "store"))

        first = run_checkpointed(cells, store, jobs=1)
        assert [r.status for r in first] == ["ok", "failed"]
        # the ok cell is stored by the time the shard returns; the
        # failed one is not
        assert store.get(cell_digest(cells[0]))["status"] == "ok"
        assert store.get(cell_digest(cells[1])) is None

        # resume: only the cell the store lacks runs again (and now
        # succeeds because its marker exists)
        open(marker, "w").write("ready\n")
        missing = [c for c in cells
                   if store.get(cell_digest(c)) is None]
        assert missing == [cells[1]]
        (second,) = run_checkpointed(missing, store, jobs=1)
        assert second.status == "ok" and second.outcome["ran"] is True
        assert all(store.get(cell_digest(c)) is not None
                   for c in cells)


class TestCorruptedCheckpoint:
    def test_missing_checkpoint_is_empty_not_error(self, tmp_path):
        root = str(tmp_path / "never")
        store = ResultStore(root)
        cells = [{"id": "a"}, {"id": "b"}]
        # a store that was never written holds nothing: every cell
        # misses, so a resume runs them all
        assert [store.get(cell_digest(c)) for c in cells] \
            == [None, None]
        assert store.stats()["entries"] == 0
        assert not os.path.exists(root)    # reading creates nothing
