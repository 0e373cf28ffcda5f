"""Shared test fixtures: a test-profile Runner and its tiny datasets.

The session ``spark`` fixture comes from the repo-root conftest.
"""
import time
import uuid

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


@pytest.fixture()
def count_jobs(spark):
    """``count_jobs(fn)``: the number of Spark jobs ``fn()`` starts, read
    from ``statusTracker()`` under a job group of its own."""
    sc = spark.sparkContext
    st = sc.statusTracker()

    def count(fn) -> int:
        group = f"count_jobs-{uuid.uuid4().hex}"
        sc.setJobGroup(group, "count_jobs")
        try:
            fn()
        finally:
            sc.setJobGroup(f"{group}-end", "count_jobs")
            # the status store hears of jobs through the listener bus, in
            # order: once this marker job shows, every earlier job has too
            sc.parallelize([0], 1).count()
            sc.setLocalProperty("spark.jobGroup.id", None)
            sc.setLocalProperty("spark.job.description", None)
        deadline = time.monotonic() + 30
        while not st.getJobIdsForGroup(f"{group}-end"):
            assert time.monotonic() < deadline, "Spark status store never saw the marker job"
            time.sleep(0.01)
        return len(st.getJobIdsForGroup(group))

    return count
