"""Shared configuration of the benchmark harness.

Every benchmark regenerates one table or figure of the paper (or one
design ablation of :mod:`repro.experiments.ablation`) and prints the
resulting rows/series, so running::

    pytest benchmarks/ --benchmark-only -s

shows the same content the paper reports.  Simulation-backed benchmarks use a
reduced message budget by default so the whole harness finishes in a few
minutes; set ``REPRO_BENCH_BUDGET=paper`` to reproduce the full 100 000
message methodology (minutes to hours, depending on the machine).
"""

from __future__ import annotations

import os

import pytest

from repro.sim.config import SimulationConfig


def bench_simulation_config(seed: int = 0) -> SimulationConfig:
    """The simulation budget selected through ``REPRO_BENCH_BUDGET``."""
    budget = os.environ.get("REPRO_BENCH_BUDGET", "quick").lower()
    if budget == "paper":
        return SimulationConfig.paper(seed=seed)
    if budget == "default":
        return SimulationConfig(seed=seed)
    return SimulationConfig(
        measured_messages=1_500, warmup_messages=150, drain_messages=150, seed=seed
    )


def bench_points() -> int:
    """Operating points per curve (fewer than the paper's plots, same range)."""
    return int(os.environ.get("REPRO_BENCH_POINTS", "5"))


@pytest.fixture(scope="session")
def simulation_config() -> SimulationConfig:
    return bench_simulation_config()


@pytest.fixture(scope="session")
def points() -> int:
    return bench_points()
