"""The paper's Tables 1-10 (§4): the one entry point.

Usage: spark-submit jobs/paper_tables.py [N ...] [--profile bench|test] [--seed S] [--out DIR]

With no N every table runs, in ascending order, on one Runner, so an AL
configuration that several tables share runs once. Each table is printed
as markdown and, with ``--out DIR``, written to ``DIR/tableNN.md``. Plain
``python`` works too; no install or ``PYTHONPATH`` is needed.
"""
from __future__ import annotations

import argparse
import os
import pathlib
import sys

sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src")))
from repro.exp.report import emit, table_markdown  # noqa: E402
from repro.exp.runner import Runner  # noqa: E402
from repro.exp.tables import TABLES  # noqa: E402
from repro.spark import session  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("tables", nargs="*", type=int, metavar="N")
    parser.add_argument("--profile", choices=["bench", "test"], default="bench")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)
    unknown = set(args.tables) - set(TABLES)
    if unknown:
        parser.error(f"no such table: {sorted(unknown)} (choose from {sorted(TABLES)})")
    args.tables = sorted(set(args.tables) or TABLES)
    return args


def run_tables(runner: Runner, tables, out: pathlib.Path | None = None) -> None:
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    for n in tables:
        result = TABLES[n](runner)
        if out is None:
            print(table_markdown(result))
        else:
            emit(out, n, result)


def main(argv=None) -> None:
    args = parse_args(argv)
    spark = session()
    try:
        run_tables(Runner(spark, profile=args.profile, seed=args.seed), args.tables, args.out)
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
