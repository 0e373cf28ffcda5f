#!/usr/bin/env python3
"""Live, warm benchmark of the active-learning loop.

    python3 perfbench/run.py --workload dial-walmart --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. One driver process starts a pinned
local Spark session, warms up on test-scale inputs the timed runs never
see, builds the workload's inputs from ``--seed`` through
``repro.exp.runner.Runner`` (bench profile), then calls
``repro.core.dial.run_al`` or ``repro.core.baselines.run_rf_qbc``
directly, again and again until ``--seconds`` have passed (at least
once). No AL result can come from the on-disk cache.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one
traced AL run and prints the per-layer metrics. The
last line of stdout is the result object; the line before it is the
run record (environment, per-run times, violations). See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

PROC_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 165.0  # a run must end within 180 s
MASTER_THREADS = 4
DRIVER_MEMORY = "3g"
NO_PERF_DATA = "-XX:-UsePerfData"  # else every JVM writes /tmp/hsperfdata_<user>
SETUP_REPEATS = 3
WARMUP_DATASET = "dblp_acm"


@dataclass(frozen=True)
class Workload:
    dataset: str
    loop: str  # "dial" → run_al, "rf" → run_rf_qbc
    overrides: dict = field(default_factory=dict)


# dial-walmart stops after 2 of BENCH_CFG's 3 rounds: with 3, the
# 48 runs of both workloads would not fit its time budget (see README).
WORKLOADS = {
    "dial-walmart": Workload("walmart_amazon", "dial", {"rounds": 2}),
    "rfqbc-abt": Workload("abt_buy", "rf"),
}

# (time metric, tracer layer, prefix of its jobs/failed_tasks/wait_s metrics)
LAYER_METRICS = [
    ("data.build_s", "data", "data."),
    ("encoders.store_s", "encoders", "encoders."),
    ("rules.cand_s", "rules", "rules.cand_"),
    ("rules.loop_s", "rules.loop", "rules.loop_"),
    ("matcher.train_s", "matcher.train", "matcher.train_"),
    ("blocker.train_s", "blocker.train", "blocker."),
    ("ibc.retrieve_s", "ibc.retrieve", "ibc."),
    ("matcher.score_s", "matcher.score", "matcher.score_"),
    ("evaluate.s", "evaluate", "evaluate."),
    ("selectors.select_s", "selectors", "selectors."),
    ("forest.train_s", "forest.train", "forest.train_"),
    ("forest.score_s", "forest.score", "forest.score_"),
]
SETUP_LAYERS = ("data", "encoders", "rules")  # built before the loop
REPEATED_LAYERS = ("data", "encoders")  # built SETUP_REPEATS times
COUNT_METRICS = [  # tracer counters reported as they are
    "matcher.fit_calls", "matcher.train_pairs", "blocker.fit_calls",
    "matcher.score_calls", "matcher.scored_pairs",
    "forest.score_calls", "forest.scored_pairs",
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("bench", "test"), default="bench",
                    help="input scale; 'test' is for the self-test only")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


# -- session ----------------------------------------------------------------
def prepare_env(tmp: Path) -> None:
    """Everything Spark, Python workers and the AL cache write goes to ``tmp``."""
    for sub in ("spark", "java", "py", "cache"):
        (tmp / sub).mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    if src not in sys.path:
        sys.path.insert(0, src)
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
    os.environ["TMPDIR"] = str(tmp / "py")
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp / "spark")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["PYTHONHASHSEED"] = "0"
    os.environ["SPARK_LAUNCHER_OPTS"] = NO_PERF_DATA  # the spark-submit launcher JVM


def master() -> str:
    return f"local[{min(MASTER_THREADS, os.cpu_count() or 1)}]"


def start_spark(tmp: Path):
    """Session settings of ``jobs/_common.build_spark`` with a fixed master."""
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {master()}",
            f"--driver-memory {DRIVER_MEMORY}",
            "--driver-java-options "
            + shlex.quote(f"-Xms{DRIVER_MEMORY} {NO_PERF_DATA} -Djava.io.tmpdir={tmp / 'java'}"),
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", str(tmp / "spark"))
        .config("spark.sql.warehouse.dir", str(tmp / "warehouse"))
        # keep every job's status for the per-layer job counts
        .config("spark.ui.retainedJobs", 100000)
        .config("spark.ui.retainedStages", 100000)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to end."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
        SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()  # the gateway JVM exits on stdin EOF
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def jvm_peak_rss_mb(spark) -> float:
    pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    return _vm_hwm_mb(f"/proc/{pid}/status")


def _vm_hwm_mb(path: str) -> float:
    with open(path) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def environment(args, spark) -> dict:
    import numpy
    import pyspark

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "repro").rglob("*.py")):
        src.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "mem_gb": round(mem_kb / 2**20, 1),
        "python": platform.python_version(),
        "spark": pyspark.__version__,
        "numpy": numpy.__version__,
        "seed": args.seed,
        "master": spark.sparkContext.master,
        "workload": args.workload,
        "profile": args.profile,
        "trace": args.trace,
    }


# -- inputs -------------------------------------------------------------------
@dataclass
class Inputs:
    runner: object
    ds: object
    store: object
    rules: object  # cached Rules CAND DataFrame, or None
    rules_keys: set | None
    fingerprint: str


def build_inputs(spark, wl: Workload, seed: int, profile: str, tr=None) -> Inputs:
    """Dataset and embedding store for one seed, with a fingerprint of both."""
    from repro.exp.runner import Runner

    runner = Runner(spark, profile=profile, seed=seed)
    with _phase(tr, "data"):
        ds = runner.dataset(wl.dataset)
    with _phase(tr, "encoders"):
        store = runner.store(wl.dataset)
    h = hashlib.sha256()
    for pdf in (ds.r_pdf, ds.s_pdf, ds.dups_pdf, ds.test_pdf):
        h.update(pdf.sort_values(list(pdf.columns[:2])).to_json(orient="values").encode())
    h.update(store.r_emb.tobytes())
    h.update(store.s_emb.tobytes())
    return Inputs(runner, ds, store, None, None, h.hexdigest())


def add_rules(inp: Inputs, wl: Workload, tr=None) -> None:
    """The cached Rules CAND, which RF-QBC selects from."""
    if wl.loop == "rf":
        with _phase(tr, "rules"):
            inp.rules = inp.runner.rules(wl.dataset)
        pdf = inp.rules.select("rid_r", "rid_s").toPandas()
        inp.rules_keys = set(zip(pdf.rid_r, pdf.rid_s))


def _phase(tr, name):
    return tr.layer(name) if tr is not None else nullcontext()


def warm_up(spark, wl: Workload, seed: int) -> None:
    """One test-scale round of the workload's loop on a dataset no workload times."""
    from repro.core import baselines, dial
    from repro.exp.runner import Runner

    r = Runner(spark, profile="test", seed=seed)
    # light work: the point is to run every Spark code path once
    cfg = r.config(WARMUP_DATASET, **{**wl.overrides, "rounds": 1, "committee_size": 1,
                                      "matcher_ensemble": 1, "matcher_epochs": 2,
                                      "blocker_epochs": 2})
    ds, store = r.dataset(WARMUP_DATASET), r.store(WARMUP_DATASET)
    if wl.loop == "rf":
        rules = r.rules(WARMUP_DATASET)
        baselines.run_rf_qbc(spark, ds, cfg, rules, store=store)
        rules.unpersist()
    else:
        dial.run_al(spark, ds, cfg, store=store)
    _warm_workers(spark)


def _warm_workers(spark) -> None:
    """Start one Python worker per task slot, with the UDF modules imported."""

    def touch(batches):
        import repro.core.matcher  # noqa: F401  (score_pairs UDF)
        import repro.forest.forest  # noqa: F401  (score_forest UDF)
        import repro.index.brute  # noqa: F401  (knn_join UDF)

        for pdf in batches:
            time.sleep(0.1)  # keep every slot busy, so each gets its own worker
            yield pdf

    spark.range(0, 64, numPartitions=16).mapInPandas(touch, "id long").count()


# -- one AL run ---------------------------------------------------------------
@dataclass
class Outcome:
    al_s: float
    round_s: list[float]
    history: list[dict]
    final: dict
    batches: list
    digests: list[str]
    positives: list[int]
    round_violations: list[list[str]]
    error: str | None = None
    tracer: object = None
    final_frames: dict = field(default_factory=dict)


def run_loop(spark, wl: Workload, inp: Inputs, cfg, *, traced: bool, tag: str) -> Outcome:
    from checks import RoundRecorder, check_rounds, round_digests
    from repro.core import baselines, dial
    from tracing import OWN, Hooks, Tracer, install_layer_hooks

    rec = RoundRecorder()
    rec.install()
    hooks, tr, frames = Hooks(), None, {}
    if traced:
        tr = Tracer(spark.sparkContext, tag)

        def on_eval(name, a):  # keep the final round's CAND and scored CAND
            if name == "blocker_recall":
                frames["round"] = frames.get("round", 0) + 1
            if frames.get("round") != cfg.rounds or name == "test_prf":
                return
            with tr.layer(OWN, "collect_final"):
                cols = ["rid_r", "rid_s"] + (["prob"] if name == "all_pairs_prf" else [])
                frames[name] = a[0].select(*cols).toPandas()

        install_layer_hooks(hooks, tr, inp.ds.test, len(inp.ds.test_pdf), on_eval)
    res, err = None, None
    t0 = time.perf_counter()
    try:
        if wl.loop == "rf":
            res = baselines.run_rf_qbc(spark, inp.ds, cfg, inp.rules, store=inp.store)
        else:
            res = dial.run_al(spark, inp.ds, cfg, store=inp.store)
    except Exception:  # the loop failed: its rounds count as failed
        err = traceback.format_exc()
    finally:
        al_s = time.perf_counter() - t0
        if tr is not None:
            tr.close()
        hooks.undo()
        rec.uninstall()
    if err:
        print(err, file=sys.stderr)
    marks = [t0] + rec.handed_in
    history = res.history if res is not None else []
    if wl.loop == "rf":
        cand_limit, cand_keys = len(inp.rules_keys), inp.rules_keys
    else:
        cand_limit, cand_keys = dial._resolve_cand_size(cfg, inp.ds), None
    viol = check_rounds(
        history, rec, rounds=cfg.rounds, budget=cfg.budget, cand_limit=cand_limit,
        test_keys=set(zip(inp.ds.test_pdf.rid_r, inp.ds.test_pdf.rid_s)),
        cand_keys=cand_keys,
    )
    if err:
        viol = [v or ["loop raised"] for v in viol]
    return Outcome(
        al_s=al_s,
        round_s=[b - a for a, b in zip(marks, marks[1:])],
        history=history,
        final=res.final if res is not None else {},
        batches=rec.batches,
        digests=round_digests(history, rec.batches),
        positives=rec.positives,
        round_violations=viol,
        error=err,
        tracer=tr,
        final_frames=frames,
    )


# -- metrics ------------------------------------------------------------------
def end_to_end(setup_s: float, runs: list[Outcome], ok_frac: float) -> dict:
    first = runs[0]
    vals = {
        "setup_s": (setup_s, "s"),
        "al_s": (statistics.median(o.al_s for o in runs), "s"),
        "round_s": (statistics.median(t for o in runs for t in o.round_s), "s"),
        "driver_peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "test_f1": (first.final["test"]["f1"], "%"),
        "cand_recall": (first.final["cand_recall"], "%"),
        "rounds_ok_frac": (ok_frac, "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in vals.items()}


def per_layer(setup_tr, n_setups: int, traced: Outcome, inp: Inputs, jvm_rss: float) -> dict:
    from tracing import OWN

    tr = traced.tracer
    tr.settle()
    setup_tr.settle()
    vals: dict[str, tuple[float, str]] = {}
    totals = {"jobs": 0, "stages": 0, "tasks": 0}
    layer_wall = 0.0
    for name, layer, prefix in LAYER_METRICS:
        src = setup_tr if layer in SETUP_LAYERS else tr
        div = n_setups if layer in REPEATED_LAYERS else 1
        wall, cpu = src.wall.get(layer, 0.0) / div, src.cpu.get(layer, 0.0) / div
        jobs = src.jobs(layer) if layer in src.layers else {
            "jobs": 0, "stages": 0, "tasks": 0, "failed_tasks": 0}
        vals[name] = (wall, "s")
        vals[prefix + "jobs"] = (jobs["jobs"] / div, "count")
        vals[prefix + "failed_tasks"] = (jobs["failed_tasks"] / div, "count")
        vals[prefix + "wait_s"] = (max(0.0, wall - cpu), "s")
        if src is tr:
            layer_wall += wall
            for k in totals:
                totals[k] += jobs[k]
    glue = tr.jobs("glue")
    for k in totals:
        totals[k] += glue[k]
    for k in COUNT_METRICS:
        vals[k] = (tr.counts.get(k, 0.0), "count")
    h = traced.history
    n_dups = len(inp.ds.dups_pdf)
    cand = sum(x.get("cand_size", 0) for x in h) if tr.counts.get("ibc.calls") else 0
    hits = sum(x["cand_recall"] * n_dups / 100.0 for x in h) if cand else 0.0
    vals["ibc.cand_pairs"] = (cand, "count")
    vals["ibc.dup_hits_per_cand"] = (hits / cand if cand else 0.0, "ratio")
    vals["rules.cand_pairs"] = (len(inp.rules_keys or ()), "count")
    n_sel = sum(len(b) for b in traced.batches)
    vals["selectors.pos_rate"] = (sum(traced.positives) / n_sel if n_sel else 0.0, "ratio")
    vals["spark.jobs"] = (totals["jobs"], "count")
    vals["spark.stages"] = (totals["stages"], "count")
    vals["spark.tasks"] = (totals["tasks"], "count")
    vals["jvm.peak_rss_mb"] = (jvm_rss, "MB")
    vals["untimed_s"] = (traced.al_s - layer_wall - tr.wall.get(OWN, 0.0), "s")
    vals["trace_overhead_s"] = (tr.wall.get(OWN, 0.0), "s")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in vals.items()}


def seed0_check(workload: str, final: dict) -> list[str]:
    from checks import SEED0_QUALITY

    want = SEED0_QUALITY.get(workload, {})
    got = {"all_pairs_f1": final["all_pairs"]["f1"], "cand_recall": final["cand_recall"]}
    return [f"seed 0 {k}={got[k]:.4f}, expected {v}" for k, v in want.items()
            if round(got[k], 2) != v]


# -- main ---------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "core" / "dial.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    # a kill still stops Spark and removes ``tmp`` through the finally below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    prepare_env(tmp)
    spark = None
    try:
        t0 = time.perf_counter()
        spark = start_spark(tmp)
        out = bench(spark, args, tmp, session_s=time.perf_counter() - t0)
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    if out is None:
        return 1
    record, result = out
    print(json.dumps({"record": record}, default=float))
    print(json.dumps(result))
    return 0


def bench(spark, args, tmp: Path, session_s: float):
    """Warm up, set up, measure and check; → (record, result) or None."""
    from checks import LiveGuard

    guard = LiveGuard(tmp / "cache")
    guard.install()
    try:
        return _measure(spark, args, session_s, guard)
    finally:
        guard.uninstall()


def _measure(spark, args, session_s: float, guard):
    from checks import SEED0_DIGESTS, duckdb_final
    from tracing import Tracer

    wl = WORKLOADS[args.workload]
    problems: list[str] = []
    notes: list[str] = []

    t0 = time.perf_counter()
    warm_up(spark, wl, args.seed)
    warmup_s = time.perf_counter() - t0

    setup_tr = Tracer(spark.sparkContext, "setup") if args.trace else None
    input_s, inp = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        nxt = build_inputs(spark, wl, args.seed, args.profile, setup_tr)
        input_s.append(time.perf_counter() - t0)
        if inp is not None and nxt.fingerprint != inp.fingerprint:
            problems.append("same seed built different inputs")
        inp = nxt
    t0 = time.perf_counter()
    add_rules(inp, wl, setup_tr)
    rules_s = time.perf_counter() - t0
    if setup_tr is not None:
        setup_tr.close()
    setup_s = session_s + warmup_s + statistics.median(input_s) + rules_s

    cfg = inp.runner.config(wl.dataset, **wl.overrides)
    runs: list[Outcome] = []
    t_measure = time.perf_counter()
    while True:
        o = run_loop(spark, wl, inp, cfg, traced=bool(args.trace), tag=f"run{len(runs)}")
        runs.append(o)
        now = time.perf_counter()
        if args.trace or now - t_measure >= args.seconds:
            break
        if now - PROC_START + 1.2 * o.al_s > DEADLINE_S:
            notes.append(f"stopped after {len(runs)} runs to end within {DEADLINE_S:.0f} s")
            break
    traced = runs[0] if args.trace else None

    ok = [o for o in runs if o.error is None]
    if not ok:
        print("perfbench: every AL run failed", file=sys.stderr)
        return None
    # Repeats at one seed must select the same batches and score the same.
    # At seed 0 every run is held to the recorded digests, so the check
    # runs even when --seconds leaves room for a single AL run.
    seed0 = args.seed == 0 and args.profile == "bench"
    ref = SEED0_DIGESTS[args.workload] if seed0 else ok[0].digests
    for o in runs:
        for r, d in enumerate(o.digests):
            if r < len(ref) and d != ref[r]:
                o.round_violations[r].append(
                    "differs from the recorded seed-0 run" if seed0 else
                    "differs from the first run at this seed")
    attempted = sum(len(o.round_violations) for o in runs)
    failed = sum(bool(v) for o in runs for v in o.round_violations)
    if seed0:
        problems += seed0_check(args.workload, ok[0].final)
    if traced is not None and traced.error is None:
        f = traced.final_frames
        if "blocker_recall" in f and "all_pairs_prf" in f:
            problems += duckdb_final(f["blocker_recall"], f["all_pairs_prf"],
                                     inp.ds.dups_pdf, traced.final)
        else:
            problems.append("traced run did not expose the final CAND for DuckDB")
    problems += guard.violations()

    if traced is not None:
        if traced.error is not None:
            print("perfbench: traced run failed", file=sys.stderr)
            return None
        metrics = per_layer(setup_tr, SETUP_REPEATS, traced, inp, jvm_peak_rss_mb(spark))
    else:
        metrics = end_to_end(setup_s, ok, (attempted - failed) / attempted)
    record = {
        **environment(args, spark),
        "setup": {"session_s": session_s, "warmup_s": warmup_s, "inputs_s": input_s,
                  "rules_s": rules_s},
        "runs": [
            {"traced": o is traced, "al_s": o.al_s, "round_s": o.round_s,
             "layers": dict(o.tracer.wall) if o.tracer else None,
             "spans": o.tracer.span_records() if o.tracer else None,
             "digests": o.digests, "violations": o.round_violations,
             "error": (o.error or "").strip()[-300:]}
            for o in runs
        ],
        "final": ok[0].final,
        "problems": problems,
        "notes": notes,
    }
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


if __name__ == "__main__":
    sys.exit(main())
