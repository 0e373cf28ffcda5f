"""The Spark session, the lifetime of the broadcasts a lazy DataFrame
reads, and the start-up cost of each Python task.

``session()`` is the one place that configures Spark: the test suite's
``spark`` fixture and every ``jobs/`` entry point call it.

A distributed path (``knn_join``, ``score_pairs``, ``score_forest``)
broadcasts its driver-side inputs and returns a lazy frame whose plan
reads them. PySpark keeps every broadcast pickled in a file under the
context's temp directory until ``destroy()``, so the frame carries its
broadcasts and whoever drops the frame releases them with it
(``retrieve_cand`` as soon as it has collected the k-NN rows). CAND
itself is driver-backed and holds none.

Every task of a reused Python worker starts with
``pyspark.worker_util.setup_spark_files``, which calls
``importlib.invalidate_caches()``. On CPython 3.11 that makes each of
the worker's ``zipimporter``s (16 of them on a Spark 4.1 install:
``pyspark.zip`` and its subpackages, the py4j zip and the
``spark-core`` jar) re-read its whole archive directory, which was
most of a trivial task's time. ``skip_unchanged_archive_rereads``
makes an importer re-read only an archive that changed; ``repro``
installs it when it is imported inside a worker, and the driver's
import machinery stays the stdlib's.
"""
from __future__ import annotations

import os
import sys
import zipimport
from pathlib import Path
from typing import Mapping

from pyspark import Broadcast
from pyspark.sql import DataFrame, SparkSession

SRC = str(Path(__file__).resolve().parents[1])


def driver_memory(env: Mapping[str, str], mem_total_kb: int) -> str:
    """``SPARK_DRIVER_MEM`` if set, else half of ``MemTotal`` in whole
    GiB, clamped to 2–8 GiB."""
    if env.get("SPARK_DRIVER_MEM"):
        return env["SPARK_DRIVER_MEM"]
    return f"{min(8, max(2, mem_total_kb // (2 << 20)))}g"


def _mem_total_kb() -> int:
    """``MemTotal`` from ``/proc/meminfo``; 0 (the 2 GiB floor) if unreadable."""
    try:
        with open("/proc/meminfo") as f:
            return next(int(line.split()[1]) for line in f if line.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return 0


def session() -> SparkSession:
    """The process's local SparkSession, created on the first call.

    The master is left to the launcher: ``local[*]``, unless
    ``spark-submit --master`` or ``PYSPARK_SUBMIT_ARGS`` names another.
    The driver heap is set when this call launches the JVM; a
    ``--driver-memory`` on either of those command lines wins. ``src/``
    goes on the driver's ``sys.path`` and, through
    ``spark.executorEnv.PYTHONPATH``, at the front of every Python
    worker's (Spark appends the launch environment's ``PYTHONPATH``), so
    ``repro`` imports on both without an install. Broadcast joins happen
    only where a query asks for one (``F.broadcast``), so a toy-scale
    test picks the same join strategies as a bench-scale run. No
    console progress bars: a job's stdout holds only what it prints.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    spark = (
        SparkSession.builder.appName("repro")
        .config("spark.driver.memory", driver_memory(os.environ, _mem_total_kb()))
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.executorEnv.PYTHONPATH", SRC)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def skip_unchanged_archive_rereads() -> None:
    """Make ``zipimporter.invalidate_caches`` re-read an archive's
    directory only when the archive's ``(st_mtime_ns, st_size)`` differs
    from what that importer last read, or cannot be read.

    An importer re-reads on its first call after this one, since what it
    read before is unknown. Call it once per process, and only in a
    Spark Python worker.
    """
    reread = zipimport.zipimporter.invalidate_caches

    def invalidate_caches(self):
        try:
            st = os.stat(self.archive)
            stamp = (st.st_mtime_ns, st.st_size)
        except OSError:
            stamp = None
        if stamp is None or stamp != getattr(self, "_read_stamp", None):
            reread(self)
            self._read_stamp = stamp

    zipimport.zipimporter.invalidate_caches = invalidate_caches


def with_broadcasts(df: DataFrame, *bs: Broadcast) -> DataFrame:
    """Tie ``bs`` to ``df``: ``release(df)`` destroys them. A frame built
    on ``df`` does not inherit them; hand them on with
    ``with_broadcasts(new, *broadcasts(df))``."""
    df.__dict__["_broadcasts"] = broadcasts(df) + bs
    return df


def broadcasts(df: DataFrame) -> tuple[Broadcast, ...]:
    """The broadcasts tied to ``df`` and not yet released."""
    return df.__dict__.get("_broadcasts", ())


def release(df: DataFrame) -> None:
    """Unpersist ``df`` and destroy its broadcasts.

    Call it only when no job will run ``df``, or a frame built on it,
    again: a cached block that is evicted and recomputed needs them.
    """
    df.unpersist()
    for b in df.__dict__.pop("_broadcasts", ()):
        b.destroy()
