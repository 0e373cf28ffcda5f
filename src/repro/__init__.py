"""DIAL reproduction.

Inside a Spark Python worker (``pyspark.worker`` is loaded there and
never on the driver), importing ``repro`` stops each task's
``importlib.invalidate_caches()`` from re-reading unchanged zip and jar
archives (``repro.spark.skip_unchanged_archive_rereads``). Every ``repro``
UDF imports the package when its closure is unpickled, so this runs
once per worker process, before the first UDF body runs there.
"""
import sys

if "pyspark.worker" in sys.modules:
    from repro.spark import skip_unchanged_archive_rereads

    skip_unchanged_archive_rereads()
