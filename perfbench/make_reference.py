"""Regenerate ``reference.json``, the facts every pass is checked against.

Run from the repository root (a minute or two; cells run on
``REPRO_JOBS`` worker processes, by default one per CPU)::

    python3 perfbench/make_reference.py

It runs each grid cell at every scale a seed can draw, records the
simulated facts the benchmark pins (status, cycles, HITM loads/stores,
data ops), fails if a (workload, system) status changes with scale,
and records the Fig 7 / Fig 9 / Table 1 text hashes of the default seed
plus the pass digests of the default and the held-out seed.  Only
regenerate it when a change is meant to alter simulated results.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

from inputs import (BASE_SCALE, DEFAULT_SEED, HELD_OUT_SEED,  # noqa: E402
                    REFERENCE_PATH, SCALES, campaign_specs, cell_key,
                    grid_axes, grid_cells, outcome_record)
from passes import render_texts, sha  # noqa: E402

WORKLOAD_TEXTS = {"repair-grid": ("figure9",), "detect-grid": ("figure7",),
                  "campaign": ("figure7", "figure9", "table1")}


def main():
    """Run the cells and write ``reference.json``."""
    from repro.eval.parallel import run_cells

    pairs = []
    for grid in ("repair", "detect"):
        workloads, systems = grid_axes(grid)
        pairs += [(w, s) for w in workloads for s in systems
                  if (w, s) not in pairs]
    cells = [{"name": w, "system": s, "scale": scale}
             for scale in SCALES for w, s in pairs]
    outcomes = run_cells(cells)

    records, statuses, base = {}, {}, {}
    for cell, outcome in zip(cells, outcomes):
        name, system, scale = cell["name"], cell["system"], cell["scale"]
        records[cell_key(name, system, scale)] = outcome_record(outcome)
        known = statuses.setdefault(f"{name}|{system}", outcome.status)
        if known != outcome.status:
            sys.exit(f"{name}/{system}: status {outcome.status} at scale "
                     f"{scale}, {known} elsewhere; narrow SCALES")
        if scale == BASE_SCALE:
            base[(name, system)] = outcome

    grids = {}
    for grid in ("repair", "detect"):
        workloads, systems = grid_axes(grid)
        grids[grid] = {w: {s: base[(w, s)] for s in systems}
                       for w in workloads}
    texts = render_texts(repair=grids["repair"], detect=grids["detect"])

    def grid_digest(grid, seed):
        return sha([[key, records[key]] for key in (
            cell_key(c["name"], c["system"], c["scale"])
            for c in grid_cells(grid, seed))])

    def campaign_digest(seed):
        facts = []
        for spec in campaign_specs(seed):
            for c in spec.cells():
                key = cell_key(c["name"], c["system"], c["scale"])
                facts.append([key, ["ok", c["name"], c["system"]]
                              + records[key][:2]])
        return sha(facts)

    seeds = (DEFAULT_SEED, HELD_OUT_SEED)
    passes = {
        "repair-grid": {str(s): grid_digest("repair", s) for s in seeds},
        "detect-grid": {str(s): grid_digest("detect", s) for s in seeds},
        "campaign": {str(s): campaign_digest(s) for s in seeds},
    }
    reference = {
        "format": "perfbench-reference/1",
        "regenerate": "python3 perfbench/make_reference.py",
        "scales": list(SCALES),
        "held_out_seed": HELD_OUT_SEED,
        "texts": {workload: {name: texts[name] for name in names}
                  for workload, names in WORKLOAD_TEXTS.items()},
        "passes": passes,
        "statuses": statuses,
        "cells": records,
    }
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}: {len(records)} cells, "
          f"{len(statuses)} (workload, system) statuses")


if __name__ == "__main__":
    main()
