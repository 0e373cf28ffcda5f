"""One harness per paper table.

Each ``tableN(runner)`` returns ``{"title", "columns", "rows"}`` where
every row carries the measured value and the paper's value side by
side; ``format_table`` renders the rows the way the paper prints them.
The benchmarks call these and ``jobs/`` wraps them for spark-submit.
"""
from __future__ import annotations

from repro.exp import paper_numbers as P
from repro.exp.runner import Runner

DATASETS = P.DATASETS


def _r(x, nd=1):
    return None if x is None else round(float(x), nd)


# ---------------------------------------------------------------------------
# Table 1 — dataset statistics
# ---------------------------------------------------------------------------

def table1(runner: Runner) -> dict:
    rows = []
    for name in DATASETS + ["multilingual"]:
        ds = runner.dataset(name)
        got = ds.stats()
        paper = P.TABLE1[name]
        rows.append(
            {
                "dataset": name,
                **{f"{k}": got[k] for k in ("|R|", "|S|", "|DUPS|", "|Dtest|")},
                "dup_ratio": float(got["dup_ratio"]),
                **{f"paper_{k}": paper[k] for k in paper},
            }
        )
    return {"title": "Table 1: dataset statistics", "rows": rows}


# ---------------------------------------------------------------------------
# Table 2 — main comparison (P/R/F1/RT on all pairs, end of AL)
# ---------------------------------------------------------------------------

_T2_METHODS = [
    ("random_forest", lambda r, d: r.rf_result(d)["final"]),
    ("jedai_schema_based", lambda r, d: {"all_pairs": r.jedai_result(d, "schema_based"),
                                         "rt_seconds": r.jedai_result(d, "schema_based")["rt_seconds"]}),
    ("jedai_schema_agnostic", lambda r, d: {"all_pairs": r.jedai_result(d, "schema_agnostic"),
                                            "rt_seconds": r.jedai_result(d, "schema_agnostic")["rt_seconds"]}),
    ("sentencebert", lambda r, d: r.al_result(d, blocking="sentencebert")["final"]),
    ("paired_fixed", lambda r, d: r.al_result(d, blocking="paired_fixed")["final"]),
    ("paired_adapt", lambda r, d: r.al_result(d, blocking="paired_adapt")["final"]),
    ("rules", lambda r, d: r.al_result(d, blocking="rules")["final"]),
    ("dial", lambda r, d: r.al_result(d, blocking="dial")["final"]),
]


def table2(runner: Runner) -> dict:
    rows = []
    for method, fn in _T2_METHODS:
        for d in DATASETS:
            final = fn(runner, d)
            ap = final["all_pairs"]
            paper = P.TABLE2[method][d]
            rows.append(
                {
                    "method": method,
                    "dataset": d,
                    "P": _r(ap["precision"]), "R": _r(ap["recall"]), "F1": _r(ap["f1"]),
                    "RT": _r(final["rt_seconds"], 2),
                    "paper_P": paper[0], "paper_R": paper[1],
                    "paper_F1": paper[2], "paper_RT": paper[3],
                }
            )
    return {"title": "Table 2: all-pairs P/R/F1/RT at end of AL", "rows": rows}


# ---------------------------------------------------------------------------
# Table 3 — multilingual
# ---------------------------------------------------------------------------

def table3(runner: Runner) -> dict:
    rows = []
    for method in ("paired_fixed", "paired_adapt", "dial"):
        final = runner.al_result("multilingual", blocking=method)["final"]
        ap = final["all_pairs"]
        pp, pr, pf = P.TABLE3[method]
        rows.append(
            {
                "method": method,
                "P": _r(ap["precision"]), "R": _r(ap["recall"]), "F1": _r(ap["f1"]),
                "paper_P": pp, "paper_R": pr, "paper_F1": pf,
            }
        )
    return {"title": "Table 3: multilingual all-pairs P/R/F1", "rows": rows}


# ---------------------------------------------------------------------------
# Tables 4-8 — ablations over the DIAL configuration
# ---------------------------------------------------------------------------

def _dial_metrics(runner: Runner, d: str, **overrides) -> dict:
    final = runner.al_result(d, blocking="dial", **overrides)["final"]
    return {
        "cand_recall": final["cand_recall"],
        "test_f1": final["test"]["f1"],
        "all_pairs_f1": final["all_pairs"]["f1"],
    }


def _ablation(runner: Runner, title, axis, field, values, default, metrics, paper) -> dict:
    """Tables 4-7: the DIAL run with ``field=value`` per value and
    dataset, one row per metric. A value equal to ``default(dataset)``,
    the default config's, runs without the override, so the default run
    is reused (§4.2: |CAND| is medium by default, large on Abt-Buy)."""
    rows = []
    for v in values:
        for d in DATASETS:
            m = _dial_metrics(runner, d, **({} if v == default(d) else {field: v}))
            rows += [
                {
                    "metric": metric, axis: v, "dataset": d,
                    "value": _r(m[metric], 2), "paper": paper[metric][v][d],
                }
                for metric in metrics
            ]
    return {"title": title, "rows": rows}


def table4(runner: Runner) -> dict:
    return _ablation(
        runner, "Table 4: labeled vs random blocker negatives", "negatives",
        "blocker_negatives", ("labeled", "random"), lambda d: "random",
        ("cand_recall", "test_f1", "all_pairs_f1"), P.TABLE4,
    )


def table5(runner: Runner) -> dict:
    return _ablation(
        runner, "Table 5: blocker training objective", "objective",
        "blocker_objective", ("classification", "triplet", "contrastive"),
        lambda d: "contrastive", ("test_f1", "all_pairs_f1"), P.TABLE5,
    )


def table6(runner: Runner) -> dict:
    return _ablation(
        runner, "Table 6: candidate-set size", "size",
        "cand_size", ("small", "medium", "large"),
        lambda d: "large" if d == "abt_buy" else "medium",
        ("cand_recall", "all_pairs_f1"), P.TABLE6,
    )


def table7(runner: Runner) -> dict:
    return _ablation(
        runner, "Table 7: committee size", "N", "committee_size", (1, 3, 5),
        lambda d: 3, ("test_f1", "all_pairs_f1"), P.TABLE7,
    )


def table8(runner: Runner) -> dict:
    rows = []
    for strategy in ("random", "greedy", "partition2", "partition4", "qbc", "badge", "uncertainty"):
        ov = {} if strategy == "uncertainty" else {"selector": strategy}
        for d in DATASETS:
            m = _dial_metrics(runner, d, **ov)
            rows.append(
                {
                    "strategy": strategy, "dataset": d,
                    "all_pairs_f1": _r(m["all_pairs_f1"], 1),
                    "paper": P.TABLE8[strategy][d],
                }
            )
    return {"title": "Table 8: selection strategies (all-pairs F1)", "rows": rows}


# ---------------------------------------------------------------------------
# Tables 9-10 — running time
# ---------------------------------------------------------------------------

def table9(runner: Runner) -> dict:
    rows = []
    for op in ("train_matcher", "train_committee", "index_retrieval", "selection"):
        for d in DATASETS:
            t = runner.al_result(d, blocking="dial")["history"][-1]["times"]
            rows.append(
                {
                    "operation": op, "dataset": d,
                    "seconds": _r(t[op], 2), "paper_seconds": P.TABLE9[op][d],
                }
            )
    return {"title": "Table 9: per-operation time, last AL round", "rows": rows}


def table10(runner: Runner) -> dict:
    rows = []
    for n in (1, 3, 10):
        ov = {} if n == 3 else {"committee_size": n}
        for d in DATASETS:
            final = runner.al_result(d, blocking="dial", **ov)["final"]
            rows.append(
                {
                    "N": n, "dataset": d,
                    "rt_seconds": _r(final["rt_seconds"], 2),
                    "paper_seconds": P.TABLE10[n][d],
                }
            )
    return {"title": "Table 10: testing time vs committee size", "rows": rows}


TABLES = {
    1: table1, 2: table2, 3: table3, 4: table4, 5: table5,
    6: table6, 7: table7, 8: table8, 9: table9, 10: table10,
}


def format_table(result: dict) -> str:
    """Fixed-width text rendering of a table result (paper vs measured)."""
    rows = result["rows"]
    if not rows:
        return result["title"] + "\n  (no rows)"
    cols = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in cols
    }
    lines = [result["title"]]
    lines.append("  " + " | ".join(str(c).ljust(widths[c]) for c in cols))
    lines.append("  " + "-+-".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append(
            "  " + " | ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols)
        )
    return "\n".join(lines)
