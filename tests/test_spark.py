"""The one Spark session factory, ``repro.spark.session()``."""
import os
import pathlib
import subprocess
import sys

from repro.spark import SRC, driver_memory, session

JOBS = pathlib.Path(__file__).resolve().parents[1] / "jobs"

GIB_KB = 1 << 20


def test_driver_memory_env_wins():
    assert driver_memory({"SPARK_DRIVER_MEM": "1g"}, 64 * GIB_KB) == "1g"
    assert driver_memory({"SPARK_DRIVER_MEM": "1500m"}, 0) == "1500m"


def test_driver_memory_is_half_of_memtotal_clamped():
    assert driver_memory({}, 0) == "2g"  # /proc/meminfo unreadable
    assert driver_memory({}, 3 * GIB_KB) == "2g"
    assert driver_memory({}, 11 * GIB_KB) == "5g"
    assert driver_memory({}, 16 * GIB_KB - 1) == "7g"
    assert driver_memory({}, 16 * GIB_KB) == "8g"
    assert driver_memory({}, 512 * GIB_KB) == "8g"
    assert driver_memory({"SPARK_DRIVER_MEM": ""}, 6 * GIB_KB) == "3g"


def test_spark_fixture_is_the_session(spark):
    assert session() is spark
    conf = spark.conf
    assert conf.get("spark.sql.shuffle.partitions") == "64"
    assert conf.get("spark.sql.execution.arrow.pyspark.enabled") == "true"
    assert conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
    assert spark.sparkContext.getConf().get("spark.executorEnv.PYTHONPATH") == SRC


_WORKER_IMPORT = """
import sys

sys.path.insert(0, sys.argv[1])
from _common import session

spark = session()


def where(batches):
    import repro

    for pdf in batches:
        yield pdf.assign(path=repro.__file__)


print(spark.sparkContext._jvm.java.lang.Runtime.getRuntime().maxMemory())
print(spark.range(1).mapInPandas(where, "id long, path string").first().path)
spark.stop()
"""


def test_jobs_session_imports_repro_on_workers_without_pythonpath(tmp_path):
    """A job's session works from a bare checkout: no install, no
    ``PYTHONPATH``; a Python worker imports ``repro`` from ``src/``."""
    script = tmp_path / "worker_import.py"
    script.write_text(_WORKER_IMPORT)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["SPARK_DRIVER_MEM"] = "1g"
    out = subprocess.run(
        [sys.executable, str(script), str(JOBS)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    heap, path = out.stdout.split()[-2:]
    assert (1 << 29) < int(heap) <= (1 << 30)  # the JVM got SPARK_DRIVER_MEM
    assert path == os.path.join(SRC, "repro", "__init__.py")
