"""Evaluation metrics (§4.1), each one Spark aggregate query.

- blocker recall: |CAND ∩ DUPS| / |DUPS|
- all-pairs P/R/F1: predicted dups = {(r,s) ∈ CAND : P(dup) > 0.5}
  against the gold DUPS list (``predicted_prf`` scores any set of
  predicted pairs, such as JedAI's)
- test P/R/F1: same predictions restricted to the labeled test pairs
  (a pair not retrieved in CAND is predicted non-dup), read from the
  scored CAND: D_test is never scored on its own

Each query left-joins a broadcast side (an explicit ``F.broadcast``
hint, so no join shuffles into ``spark.sql.shuffle.partitions``) and
ends in one global aggregate. CAND holds each pair once. Each metric
has a DuckDB-oracle test in ``tests/test_evaluate.py``.
"""
from __future__ import annotations

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

_PAIR = ["rid_r", "rid_s"]
THRESHOLD = 0.5  # a pair is predicted duplicate iff P(dup) > 0.5 (§4.1)


def _prf(tp: int, n_pred: int, n_gold: int) -> dict:
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return {"precision": 100 * p, "recall": 100 * r, "f1": 100 * f1}


def _flagged(pairs: DataFrame, flag: str) -> DataFrame:
    """(rid_r, rid_s, flag=1), broadcast: the lookup side of a left join."""
    return F.broadcast(pairs.select(*_PAIR, F.lit(1).alias(flag)))


def _is_set(flag: str) -> Column:
    return F.col(flag).isNotNull().cast("int")


def _sums(df: DataFrame, **cols: Column) -> dict:
    """One global aggregate: the integer sum of each named column."""
    row = df.agg(*[F.sum(c).alias(k) for k, c in cols.items()]).collect()[0]
    return {k: int(row[k] or 0) for k in cols}


def blocker_recall(cand: DataFrame, dups: DataFrame) -> float:
    """Fraction of gold duplicates present in the candidate set."""
    s = _sums(
        dups.select(_PAIR).join(_flagged(cand, "hit"), _PAIR, "left"),
        gold=F.lit(1), hit=_is_set("hit"),
    )
    return 100.0 * s["hit"] / s["gold"] if s["gold"] else 0.0


def predicted_prf(pred: DataFrame, dups: DataFrame) -> dict:
    """P/R/F1 of the predicted duplicate pairs ``pred`` vs the gold DUPS."""
    pred = (
        pred.select(_PAIR)
        .join(_flagged(dups, "gold"), _PAIR, "left")
        .select(F.lit(1).alias("pred"), _is_set("gold").alias("tp"), F.lit(0).alias("gold"))
    )
    gold = dups.select(F.lit(0).alias("pred"), F.lit(0).alias("tp"), F.lit(1).alias("gold"))
    s = _sums(pred.unionByName(gold), pred=F.col("pred"), tp=F.col("tp"), gold=F.col("gold"))
    return _prf(s["tp"], s["pred"], s["gold"])


def all_pairs_prf(scored_cand: DataFrame, dups: DataFrame) -> dict:
    """P/R/F1 of {cand pairs with prob > 0.5} vs the gold DUPS."""
    return predicted_prf(scored_cand.filter(F.col("prob") > THRESHOLD), dups)


def test_prf(test: DataFrame, scored_cand: DataFrame) -> dict:
    """P/R/F1 on the labeled test pairs.

    A test pair is predicted duplicate iff it is in CAND *and* its
    matcher probability exceeds the threshold (§4.1: "the overall system
    predicts a record pair to be a duplicate only if the record pair is
    retrieved in CAND and the matcher assigns probability > 0.5"); its
    probability is read from ``scored_cand``.
    """
    probs = F.broadcast(scored_cand.select(*_PAIR, "prob"))
    pred = F.coalesce((F.col("prob") > THRESHOLD).cast("int"), F.lit(0))
    s = _sums(
        test.join(probs, _PAIR, "left"),
        tp=pred * F.col("label"), pred=pred, gold=F.col("label"),
    )
    return _prf(s["tp"], s["pred"], s["gold"])
