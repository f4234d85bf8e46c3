"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures through
:mod:`repro.eval.experiments`, prints the paper-style table, persists it
under ``results/``, and asserts the paper's qualitative claims (shapes,
not absolute numbers).

Scale knob: set ``REPRO_BENCH_SCALE`` to trade fidelity for speed
(default 1.0 = the sized-up runs recorded in EXPERIMENTS.md for the
repair experiments; broad 35-workload sweeps use smaller per-experiment
defaults).

Table 1 and Table 3 are synthesized from the Figure 7 and Figure 9
grids, so those two grids are session fixtures: each runs once per
session, at the scale its own test asserts on.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


def bench_scale(default=1.0):
    return float(os.environ.get("REPRO_BENCH_SCALE", default))


@pytest.fixture
def scale():
    return bench_scale()


@pytest.fixture(scope="session")
def figure7_result():
    from repro.eval import figure7
    return figure7(scale=bench_scale(1.0) * 0.3)


@pytest.fixture(scope="session")
def figure9_result():
    from repro.eval import figure9
    return figure9(scale=bench_scale(1.0))


def publish(result):
    """Print and persist an ExperimentResult."""
    print()
    print(result.text)
    path = result.save()
    print(f"[saved {path}]")
    return result
