"""Shared plumbing for spark-submit entrypoints.

Each ``jobs/tableNN_*.py`` reproduces one table of the paper:
``spark-submit jobs/table02_main.py --profile bench`` (or ``python
jobs/table02_main.py``) prints the paper-vs-measured rows. No install
or ``PYTHONPATH`` is needed: this module puts ``src/`` on the path, and
``repro.spark.session()`` puts it on the Python workers'. Every
invocation runs its AL configurations live; within one process a
configuration shared by several tables runs once.
"""
from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src")))
from repro.spark import session  # noqa: E402


def run_table(table_no: int, argv=None) -> dict:
    parser = argparse.ArgumentParser()
    parser.add_argument("--profile", choices=["bench", "test"], default="bench")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    from repro.exp.runner import Runner
    from repro.exp.tables import TABLES, format_table

    spark = session()
    try:
        runner = Runner(spark, profile=args.profile, seed=args.seed)
        result = TABLES[table_no](runner)
        print(format_table(result))
        return result
    finally:
        spark.stop()


def main(table_no: int):
    run_table(table_no, sys.argv[1:])
