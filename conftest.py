import os
import sys

import pytest
from pyspark.sql import SparkSession

from repro.spark import session


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """The process's ``repro.spark.session()``, stopped at the end of the
    test session."""
    s = session()
    sc = s.sparkContext
    # One line in test_output.txt: the driver heap the session asked for, and from where.
    print(
        f"[conftest] SPARK_DRIVER_MEM={sc.getConf().get('spark.driver.memory')} "
        f"(src={'env' if 'SPARK_DRIVER_MEM' in os.environ else 'MemTotal'}) "
        f"master={sc.master} defaultParallelism={sc.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
