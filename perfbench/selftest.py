#!/usr/bin/env python3
"""Test-scale self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes a few minutes on 4 cores. It
checks that:

1. every metric ``BENCHMARK.json`` names is printed with its unit, for
   every workload, with ``--trace 0`` and ``--trace 1`` (test-scale
   inputs, so the numbers themselves mean nothing);
2. a planted cache hit trips the live-only guard;
3. ``--seed`` changes the generated inputs, and a repeated seed does not;
4. the benchmark exits non-zero, without a result, in a directory that
   holds only ``BENCHMARK.json`` and the benchmark's own files.

Exits 0 when all pass.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import run

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def metrics_and_units(spark, tmp, spec) -> None:
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = run.parse_args(["--workload", wl["name"], "--seed", "0", "--seconds", "10",
                                   "--trace", str(trace), "--profile", "test"])
            out = run.bench(spark, args, tmp, session_s=0.0)
            check(out is not None, f"{wl['name']} --trace {trace}: produced a result")
            if out is None:
                continue
            _, result = out
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{wl['name']} --trace {trace}: result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{wl['name']} --trace {trace}: correct, nothing failed")
            got = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            missing = sorted(set(want) - set(got))
            extra = sorted(set(got) - set(want))
            wrong = sorted(k for k in want if k in got and got[k].get("unit") != want[k])
            check(not (missing or extra or wrong),
                  f"{wl['name']} --trace {trace}: exactly the {key} metrics, with their units"
                  + (f" (missing {missing}, extra {extra}, wrong unit {wrong})"
                     if missing or extra or wrong else ""))
            check(all(isinstance(v.get("value"), float) for v in got.values()),
                  f"{wl['name']} --trace {trace}: every value is a number")


def planted_cache_hit(spark, tmp) -> None:
    from checks import CacheReadError, LiveGuard
    from repro.exp import cache
    from repro.exp.runner import Runner

    r = Runner(spark, profile="test", seed=0)
    name = "walmart_amazon"
    key = r._cache_key(name, r.config(name), "al")
    cache.store(key, {"planted": True})
    check(cache.load(key) == {"planted": True}, "planted entry is a cache hit without the guard")
    guard = LiveGuard(tmp / "cache")
    guard.install()
    try:
        r.al_result(name)
        raised = False
    except CacheReadError:
        raised = True
    finally:
        guard.uninstall()
    v = guard.violations()
    check(raised and any("cache.load" in x for x in v) and any("not empty" in x for x in v),
          f"planted cache hit trips the guard ({v})")
    for p in (tmp / "cache").iterdir():
        p.unlink()
    check(not LiveGuard(tmp / "cache").violations(), "empty cache dir passes the guard")


def seed_changes_inputs(spark) -> None:
    wl = run.WORKLOADS["dial-walmart"]
    a, b, c = (run.build_inputs(spark, wl, s, "test").fingerprint for s in (0, 0, 1))
    check(a == b, "same --seed, same inputs")
    check(a != c, "another --seed, other inputs")


def bare_directory_fails() -> None:
    bare = run.ROOT / ".perfbench_tmp" / f"bare-{os.getpid()}"
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        t0 = time.perf_counter()
        p = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "dial-walmart",
             "--seed", "0", "--seconds", "10", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(p.returncode != 0 and not p.stdout.strip() and time.perf_counter() - t0 < 180,
              f"bare directory: exit {p.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bare_directory_fails()
    tmp = run.ROOT / ".perfbench_tmp" / f"selftest-{os.getpid()}"
    run.prepare_env(tmp)
    spark = run.start_spark(tmp)
    try:
        seed_changes_inputs(spark)
        planted_cache_hit(spark, tmp)
        metrics_and_units(spark, tmp, spec)
    finally:
        run.stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
