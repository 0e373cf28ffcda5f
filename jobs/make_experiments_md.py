"""Regenerate the measured tables for EXPERIMENTS.md.

Runs all ten table harnesses live on one Runner (each configuration
once, ~22 min on 4 cores at bench scale) and writes
``experiments_tables.md`` with paper-vs-measured markdown tables; the
commentary in EXPERIMENTS.md references these.

Usage: spark-submit jobs/make_experiments_md.py [--profile bench]
"""
import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
from _common import session


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--profile", choices=["bench", "test"], default="bench")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="experiments_tables.md")
    args = parser.parse_args()

    from repro.exp.report import all_tables_markdown
    from repro.exp.runner import Runner

    spark = session()
    try:
        runner = Runner(spark, profile=args.profile, seed=args.seed)
        parts = all_tables_markdown(runner)
        with open(args.out, "w") as f:
            f.write("# Measured tables (paper vs this reproduction)\n\n")
            for n in sorted(parts):
                f.write(parts[n] + "\n")
        print(f"wrote {args.out}")
    finally:
        spark.stop()


if __name__ == "__main__":
    main()
