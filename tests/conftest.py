"""Shared test fixtures: a test-profile Runner and its tiny datasets.

The session ``spark`` fixture comes from the repo-root conftest.
"""
import numpy as np
import pytest

from repro.exp.runner import Runner


@pytest.fixture(scope="session")
def runner(spark) -> Runner:
    return Runner(spark, profile="test")


@pytest.fixture(scope="session")
def wa(runner):
    """Tiny walmart_amazon dataset (product family)."""
    return runner.dataset("walmart_amazon")


@pytest.fixture(scope="session")
def scholar(runner):
    """Tiny dblp_scholar dataset (citation family, many-to-many)."""
    return runner.dataset("dblp_scholar")


@pytest.fixture(scope="session")
def abt(runner):
    """Tiny abt_buy dataset (textual family)."""
    return runner.dataset("abt_buy")


@pytest.fixture(scope="session")
def ml(runner):
    """Tiny multilingual dataset (with §4.5 seed/test prep)."""
    return runner.dataset("multilingual")


@pytest.fixture(scope="session")
def wa_store(runner, wa):
    return runner.store("walmart_amazon")


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
