"""Benchmark harness configuration.

Each benchmark regenerates one of the paper's tables or figures through
:mod:`repro.eval.experiments`, prints the paper-style table, persists it
under ``results/``, and asserts the paper's qualitative claims (shapes,
not absolute numbers).

Scale knob: set ``REPRO_BENCH_SCALE`` to trade fidelity for speed
(default 1.0 = the sized-up runs recorded in EXPERIMENTS.md for the
repair experiments; broad 35-workload sweeps use smaller per-experiment
defaults).
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


def publish(result):
    """Print and persist an ExperimentResult."""
    print()
    print(result.text)
    path = result.save()
    print(f"[saved {path}]")
    return result
