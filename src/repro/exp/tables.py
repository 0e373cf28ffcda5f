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


def table4(runner: Runner) -> dict:
    rows = []
    for negatives in ("labeled", "random"):
        ov = {} if negatives == "random" else {"blocker_negatives": "labeled"}
        for d in DATASETS:
            m = _dial_metrics(runner, d, **ov)
            for metric in ("cand_recall", "test_f1", "all_pairs_f1"):
                rows.append(
                    {
                        "metric": metric, "negatives": negatives, "dataset": d,
                        "value": _r(m[metric], 2),
                        "paper": P.TABLE4[metric][negatives][d],
                    }
                )
    return {"title": "Table 4: labeled vs random blocker negatives", "rows": rows}


def table5(runner: Runner) -> dict:
    rows = []
    for objective in ("classification", "triplet", "contrastive"):
        ov = {} if objective == "contrastive" else {"blocker_objective": objective}
        for d in DATASETS:
            m = _dial_metrics(runner, d, **ov)
            for metric in ("test_f1", "all_pairs_f1"):
                rows.append(
                    {
                        "metric": metric, "objective": objective, "dataset": d,
                        "value": _r(m[metric], 2),
                        "paper": P.TABLE5[metric][objective][d],
                    }
                )
    return {"title": "Table 5: blocker training objective", "rows": rows}


def _cand_size_override(dataset: str, size: str) -> dict:
    """Canonicalize Table 6 sizes onto the default config when equal
    (§4.2: default = medium for most datasets, = large for Abt-Buy), so
    the default run is reused."""
    if size == "medium" and dataset != "abt_buy":
        return {}
    if size == "large" and dataset == "abt_buy":
        return {}
    return {"cand_size": size}


def table6(runner: Runner) -> dict:
    rows = []
    for size in ("small", "medium", "large"):
        for d in DATASETS:
            m = _dial_metrics(runner, d, **_cand_size_override(d, size))
            for metric in ("cand_recall", "all_pairs_f1"):
                rows.append(
                    {
                        "metric": metric, "size": size, "dataset": d,
                        "value": _r(m[metric], 2),
                        "paper": P.TABLE6[metric][size][d],
                    }
                )
    return {"title": "Table 6: candidate-set size", "rows": rows}


def table7(runner: Runner) -> dict:
    rows = []
    for n in (1, 3, 5):
        ov = {} if n == 3 else {"committee_size": n}
        for d in DATASETS:
            m = _dial_metrics(runner, d, **ov)
            for metric in ("test_f1", "all_pairs_f1"):
                rows.append(
                    {
                        "metric": metric, "N": n, "dataset": d,
                        "value": _r(m[metric], 2),
                        "paper": P.TABLE7[metric][n][d],
                    }
                )
    return {"title": "Table 7: committee size", "rows": rows}


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
