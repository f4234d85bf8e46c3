"""Thread and data mapping policies for multi-socket topologies.

False-sharing repair is not the only lever against coherence traffic:
on a NUMA machine, *where* threads run and *where* pages live decides
whether a falsely shared line ping-pongs inside one socket's directory
or across the QPI link.  This package implements the mapping policies
the eval grid compares against TMI-style repair (see the "Thread and
Data Mapping in Software Transactional Memory" survey in PAPERS.md):

- thread placement (:mod:`repro.mapping.placement`): ``compact`` (the
  engine's default), ``scatter``, and ``sharing-aware`` (placed by
  measured line-sharing affinity);
- page placement: ``first-touch`` / ``interleave``, implemented by the
  machine itself (:data:`repro.sim.machine.PAGE_POLICIES`) and chosen
  per run;
- sharing-affinity extraction (:mod:`repro.mapping.sharing`): turns a
  trace's line->tid byte masks into thread groups for sharing-aware
  placement.

Everything here is deterministic and topology-driven; policies never
consult wall-clock state, so grid cells stay byte-identical at any
``REPRO_JOBS``.
"""

from repro.mapping.placement import (PLACEMENT_NAMES, CompactPlacement,
                                     Placement, ScatterPlacement,
                                     SharingAwarePlacement,
                                     make_placement)
from repro.mapping.sharing import affinity_groups

__all__ = [
    "PLACEMENT_NAMES",
    "Placement",
    "CompactPlacement",
    "ScatterPlacement",
    "SharingAwarePlacement",
    "make_placement",
    "affinity_groups",
]
