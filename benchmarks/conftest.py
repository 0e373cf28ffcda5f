"""Benchmark fixtures: a bench-profile Runner shared across all table
benchmarks, plus an output directory for the rendered tables.

The Runner memoizes AL results in memory, so the ~110 configurations
the ten tables sweep each execute once per pytest session, and every
number is computed by the code under test.
"""
import pathlib

import pytest

from repro.exp.runner import Runner

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[1] / "bench_results"


@pytest.fixture(scope="session")
def bench_runner(spark) -> Runner:
    return Runner(spark, profile="bench")


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
