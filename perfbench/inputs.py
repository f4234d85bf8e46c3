"""Seeded benchmark inputs and the reference they are checked against.

The program under test never sees the seed: it receives only the cell
keyword dicts (grids) or the campaign specs (campaign) built here.

Seed 0 is the paper's own grids at :data:`BASE_SCALE`, in paper order,
so the rendered Fig 7, Fig 9 and Table 1 text can be hashed.  Any other
seed draws each grid cell's scale (each campaign spec's scale) from
:data:`SCALES` and shuffles the cell order.  The band is narrow on
purpose: every draw changes iteration counts, and so cycles and HITM
counts, but the total work of a pass moves by well under 1%, so
host-time spreads stay inside the benchmark's bounds.
"""

import json
import os
import random

#: Cell scale of the default seed (the scale BENCH_PR6 timed Table 1 at).
BASE_SCALE = 0.1
#: Scales a non-default seed draws from; reference.json covers each.
SCALES = (0.098, 0.099, 0.1, 0.101, 0.102)
DEFAULT_SEED = 0
#: A seed nobody tunes on: its pass digests are recorded so a later
#: gain claim can be rechecked on inputs its author did not see.
HELD_OUT_SEED = 2718281

#: Fig 9 (repair) and Fig 7 (detection) systems, in paper column order.
REPAIR_SYSTEMS = ("pthreads", "manual", "sheriff-protect", "laser",
                  "tmi-protect")
DETECT_SYSTEMS = ("pthreads", "sheriff-detect", "tmi-alloc",
                  "tmi-detect")

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def grid_axes(grid):
    """``(workloads, systems)`` of the ``repair`` or ``detect`` grid."""
    from repro.workloads import figure7_names, repair_suite_names
    if grid == "repair":
        return list(repair_suite_names()), list(REPAIR_SYSTEMS)
    return list(figure7_names()), list(DETECT_SYSTEMS)


def grid_cells(grid, seed):
    """The ``run_workload`` keyword dicts of one grid pass."""
    workloads, systems = grid_axes(grid)
    cells = [{"name": w, "system": s, "scale": BASE_SCALE}
             for w in workloads for s in systems]
    if seed != DEFAULT_SEED:
        rng = random.Random(f"{grid}-grid:{seed}")
        for cell in cells:
            cell["scale"] = rng.choice(SCALES)
        rng.shuffle(cells)
    return cells


def campaign_specs(seed):
    """The Table 1 campaign: the repair and detect grids as two specs."""
    from repro.service import CampaignSpec
    rng = random.Random(f"campaign:{seed}")
    specs = []
    for grid in ("repair", "detect"):
        workloads, systems = grid_axes(grid)
        scale = BASE_SCALE
        if seed != DEFAULT_SEED:
            rng.shuffle(workloads)
            rng.shuffle(systems)
            scale = rng.choice(SCALES)
        specs.append(CampaignSpec(workloads=tuple(workloads),
                                  systems=tuple(systems), scale=scale,
                                  name=f"table1-{grid}"))
    if seed != DEFAULT_SEED:
        rng.shuffle(specs)
    return specs


def cell_key(name, system, scale):
    """Reference-table key of one cell."""
    return f"{name}|{system}|{scale!r}"


def outcome_record(outcome):
    """The simulated facts of one ``RunOutcome`` the benchmark pins:
    ``[status, cycles, hitm_loads, hitm_stores, data_ops]``."""
    result = outcome.result
    if result is None:
        return [outcome.status, None, None, None, None]
    return [outcome.status, result.cycles, result.hitm_loads,
            result.hitm_stores, result.data_ops]


def load_reference(path=REFERENCE_PATH):
    """The recorded statuses, per-cell records and text/pass digests."""
    with open(path) as fh:
        return json.load(fh)
