"""Shared plumbing for spark-submit entrypoints.

Each ``jobs/tableNN_*.py`` reproduces one table of the paper:
``spark-submit jobs/table02_main.py --profile bench`` prints the
paper-vs-measured rows. Every invocation runs its AL configurations
live; within one process a configuration shared by several tables runs
once.
"""
from __future__ import annotations

import argparse
import os
import sys


def build_spark():
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 8g --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("dial-repro")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def run_table(table_no: int, argv=None) -> dict:
    parser = argparse.ArgumentParser()
    parser.add_argument("--profile", choices=["bench", "test"], default="bench")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.exp.runner import Runner
    from repro.exp.tables import TABLES, format_table

    spark = build_spark()
    try:
        runner = Runner(spark, profile=args.profile, seed=args.seed)
        result = TABLES[table_no](runner)
        print(format_table(result))
        return result
    finally:
        spark.stop()


def main(table_no: int):
    run_table(table_no, sys.argv[1:])
