"""The one Spark session factory, ``repro.spark.session()``, and the
archive re-reads a Python worker skips."""
import os
import pathlib
import subprocess
import sys
import zipfile
import zipimport

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
    # no "[Stage N:>" progress bars in a job's output
    assert spark.sparkContext.getConf().get("spark.ui.showConsoleProgress") == "false"


_WORKER_IMPORT = """
import sys

sys.path.insert(0, sys.argv[1])
from paper_tables import session

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


_ARCHIVE_REREADS = """
import importlib, sys, zipfile, zipimport

from repro.spark import skip_unchanged_archive_rereads

archive = sys.argv[1]
with zipfile.ZipFile(archive, "w") as z:
    z.writestr("zipped_a.py", "A = 1")
sys.path.insert(0, archive)
import zipped_a

calls = []
original = zipimport.zipimporter.invalidate_caches
def counted(self):
    calls.append(self.archive)
    original(self)
zipimport.zipimporter.invalidate_caches = counted
skip_unchanged_archive_rereads()

def rereads():
    n = len(calls)
    importlib.invalidate_caches()
    return calls[n:].count(archive)

first = rereads()  # what the importer read before is unknown
unchanged = [rereads(), rereads()]
with zipfile.ZipFile(archive, "w") as z:
    z.writestr("zipped_a.py", "A = 1")
    z.writestr("zipped_b.py", "B = 2")
changed = rereads()
import zipped_b
print(first, unchanged, changed, zipped_b.B, rereads())
"""


def test_unchanged_archive_is_not_reread_and_a_changed_one_is(tmp_path):
    """With the wrapper installed (in a process of its own, so this one
    stays unpatched), ``importlib.invalidate_caches()`` re-reads a zip on
    ``sys.path`` only after it changed, and a module added to it imports."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", _ARCHIVE_REREADS, str(tmp_path / "lib.zip")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    assert out.stdout.split("\n")[-2] == "1 [0, 0] 1 2 0"


def test_reused_worker_rereads_no_unchanged_archive(spark, tmp_path):
    """A reused Python worker's second task re-reads no archive, neither
    in Spark's own ``invalidate_caches()`` at its start nor in one the
    task makes; the driver keeps the stdlib's ``zipimporter``."""
    archive = str(tmp_path / "probe.zip")
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("zipped_probe.py", "")

    def probe(batches):
        import importlib
        import os
        import sys
        import zipimport

        import repro  # noqa: F401  (as every repro UDF does when unpickled)

        if archive not in sys.path:  # an archive whatever the Spark install
            sys.path.append(archive)
            import zipped_probe  # noqa: F401
        reads = []
        read_directory = zipimport._read_directory
        zipimport._read_directory = lambda path: reads.append(path) or read_directory(path)
        try:
            importlib.invalidate_caches()
        finally:
            zipimport._read_directory = read_directory
        zips = sum(isinstance(f, zipimport.zipimporter) for f in sys.path_importer_cache.values())
        for pdf in batches:
            yield pdf.assign(pid=os.getpid(), zips=zips, reads=len(reads))

    # a local session keeps at most one idle worker per task slot, so
    # more one-task jobs than slots must run some worker twice
    one_task = spark.range(1, numPartitions=1)
    rows = [one_task.mapInPandas(probe, "id long, pid long, zips long, reads long").collect()[0]
            for _ in range(spark.sparkContext.defaultParallelism + 2)]
    later = [r for i, r in enumerate(rows) if r.pid in {q.pid for q in rows[:i]}]
    assert later, "no Python worker was reused"
    assert all(r.zips >= 1 and r.reads == 0 for r in later), rows
    wrapped = zipimport.zipimporter.invalidate_caches
    assert (wrapped.__module__, wrapped.__qualname__) == ("zipimport", "zipimporter.invalidate_caches")
