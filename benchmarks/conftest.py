"""Shared fixtures for the benchmark harness.

Each ``test_*.py`` here regenerates one of the paper's tables/figures as
a pytest-benchmark run: the benchmark table printed by
``pytest benchmarks/ --benchmark-only`` carries the timing columns, and
the assertions in each test pin the qualitative *shape* the paper
reports (who wins, what fails, where timeouts appear).
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.engine import case_by_name


@pytest.fixture(scope="session")
def cases():
    """The benchmark cases used across the harness (small + medium)."""
    return {name: case_by_name(name) for name in ("size3i", "size3", "size5", "size10")}


@pytest.fixture(scope="session")
def mode0_matrices(cases):
    return {name: case.mode_matrix(0) for name, case in cases.items()}


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


class PerfPin:
    """The ``REPRO_PERF_SOFT`` gate every speedup pin goes through.

    By default ``check`` asserts ``speedup >= pin``. With
    ``REPRO_PERF_SOFT=1`` (shared/noisy CI runners) a miss of the pin
    only warns, and the hard floor drops to ``soft_floor`` (default
    half the pin).
    """

    def __init__(self):
        self.soft = bool(os.environ.get("REPRO_PERF_SOFT"))

    def check(self, label, speedup, pin, soft_floor=None, detail=""):
        floor = pin
        if self.soft:
            floor = pin / 2 if soft_floor is None else soft_floor
            if speedup < pin:
                warnings.warn(
                    f"{label}: speedup {speedup:.1f}x below the {pin:g}x "
                    f"pin (soft mode, floor {floor:g}x)",
                    stacklevel=2,
                )
        assert speedup >= floor, (
            f"{label}: {speedup:.1f}x is below the floor {floor:g}x{detail}"
        )


@pytest.fixture
def perf_pin():
    return PerfPin()
