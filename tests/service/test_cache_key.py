"""Hypothesis properties of the content-addressed cache key.

The digest must be a pure function of the cell's *value*: invariant to
config dict key order and to host-side execution knobs (``REPRO_JOBS``),
and injective over distinct (workload, system, config, seed) tuples at
the canonical-form level — a serialization collision would silently
serve one cell's cycles as another's.  The per-spec digest memo
(:meth:`CampaignSpec.cell_digests`) must return exactly those digests
and never serve one spec's entry for another spec's cells.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import package_copy
from repro.service import CampaignSpec, canonical_form, cell_digest
from repro.service import spec as spec_mod

# first draws pay hypothesis' strategy warm-up; irrelevant to the
# properties under test, so don't let the too_slow health check flake
_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

#: JSON-representable TMI config override values.  The domains are
#: type-disjoint under Python ``==`` (ints start at 2, so no boolean
#: aliasing): dict equality of two generated cells then implies
#: identical canonical JSON, which is what the injectivity property
#: quantifies over.
_VALUES = st.one_of(st.integers(2, 2**31), st.booleans(),
                    st.text(max_size=12))

_CONFIGS = st.dictionaries(
    st.sampled_from(["period", "detect_interval_cycles",
                     "repair_threshold_events", "huge_pages",
                     "targeted", "code_centric", "max_repair_pages"]),
    _VALUES, max_size=5)

_CELLS = st.fixed_dictionaries(
    {"name": st.sampled_from(["histogram", "histogramfs", "lreg"]),
     "system": st.sampled_from(["pthreads", "tmi-protect", "laser"]),
     "scale": st.sampled_from([0.05, 0.1, 1.0]),
     "config": _CONFIGS,
     "seed": st.one_of(st.none(), st.integers(0, 2**16))})


@_SETTINGS
@given(cell=_CELLS, shuffle=st.randoms(use_true_random=False))
def test_config_key_order_never_changes_the_digest(cell, shuffle):
    keys = list(cell["config"])
    shuffle.shuffle(keys)
    reordered = dict(cell, config={k: cell["config"][k] for k in keys})
    assert cell_digest(cell) == cell_digest(reordered)
    assert canonical_form(cell) == canonical_form(reordered)


@settings(parent=_SETTINGS,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(cell=_CELLS, jobs=st.sampled_from(["1", "4", "16", ""]))
def test_repro_jobs_never_changes_the_digest(cell, jobs,
                                             monkeypatch):
    baseline = cell_digest(cell)
    monkeypatch.setenv("REPRO_JOBS", jobs)
    assert cell_digest(cell) == baseline
    monkeypatch.delenv("REPRO_JOBS")
    assert cell_digest(cell) == baseline


@_SETTINGS
@given(a=_CELLS, b=_CELLS)
def test_distinct_cells_never_collide_on_canonical_form(a, b):
    if a == b:
        assert canonical_form(a) == canonical_form(b)
    else:
        assert canonical_form(a) != canonical_form(b)


@_SETTINGS
@given(cell=_CELLS)
def test_digest_is_stable_across_processes(cell):
    # sha256 of the canonical form, no PYTHONHASHSEED contamination
    import hashlib
    want = hashlib.sha256(canonical_form(cell).encode()).hexdigest()
    assert cell_digest(cell) == want


@settings(parent=_SETTINGS, max_examples=20,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(cell=_CELLS)
def test_engine_version_invalidates_the_cache(cell, monkeypatch,
                                              edited_identity):
    """Every cell misses once a cost constant changes in the code."""
    from repro.service import store as store_mod
    before = cell_digest(cell)
    monkeypatch.setattr(store_mod, "engine_version",
                        lambda: edited_identity)
    assert cell_digest(cell) != before
    monkeypatch.undo()
    assert cell_digest(cell) == before


@pytest.fixture(scope="module")
def edited_identity(tmp_path_factory):
    """Engine identity of a package copy with one cost edited."""
    from repro.service import package_identity
    dest = tmp_path_factory.mktemp("pkg") / "repro"
    return package_identity(package_copy(dest))


#: Specs over small domains, so that two draws often differ in one
#: field only.
_SPECS = st.builds(
    CampaignSpec,
    workloads=st.lists(st.sampled_from(["histogram", "lreg"]),
                       min_size=1, max_size=2),
    systems=st.lists(st.sampled_from(["pthreads", "laser"]),
                     min_size=1, max_size=2),
    # a detection interval of 2 or 3 cycles is refused at validation
    configs=st.lists(st.dictionaries(
        st.sampled_from(sorted(spec_mod.CONFIG_KEYS
                               - {"detect_interval_cycles"})[:3]),
        st.integers(2, 3), max_size=1), min_size=1, max_size=2),
    scale=st.sampled_from([0.05, 0.1]),
    nthreads=st.sampled_from([None, 2]),
    priority=st.integers(0, 1),
    name=st.sampled_from(["", "n"]))


@_SETTINGS
@given(specs=st.lists(_SPECS, min_size=2, max_size=6))
def test_spec_digest_memo_is_exact(specs):
    for spec in specs + specs[::-1]:
        assert spec.cell_digests() == tuple(
            cell_digest(cell) for cell in spec.cells())
    first, second = specs[:2]
    if first.cells() != second.cells():
        assert first.canonical_text() != second.canonical_text()
    assert len(spec_mod._CELL_DIGESTS) <= spec_mod.DIGEST_MEMO_SPECS


def test_spec_digest_memo_follows_the_engine_identity(monkeypatch):
    from repro.service import store as store_mod
    spec = CampaignSpec(workloads=("histogram",), scale=0.05)
    before = spec.cell_digests()
    monkeypatch.setattr(store_mod, "engine_version", lambda: "edited")
    assert spec.cell_digests() != before
    assert spec.cell_digests() == tuple(
        cell_digest(cell) for cell in spec.cells())
