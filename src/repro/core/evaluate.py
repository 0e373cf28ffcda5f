"""Evaluation metrics (§4.1), counted on the driver.

- blocker recall: |CAND ∩ DUPS| / |DUPS|
- all-pairs P/R/F1: predicted dups = {(r,s) ∈ CAND : P(dup) > 0.5}
  against the gold DUPS list (``predicted_prf`` scores any set of
  predicted pairs, such as JedAI's)
- test P/R/F1: same predictions restricted to the labeled test pairs
  (a pair not retrieved in CAND is predicted non-dup), read from the
  scored CAND: D_test is never scored on its own

DUPS and D_test are the dataset's pandas copies, and every metric
counts pairs by membership in a Python set of ``(rid_r, rid_s)``
tuples, built from the smaller side (DUPS, or the test pairs predicted
positive), so that no set of all of CAND is built. ``blocker_recall``
and ``all_pairs_prf`` take a Spark frame and collect only the pair
columns they need, in one job each (``all_pairs_prf`` filters
``prob > 0.5`` before the collect); ``predicted_prf`` and ``test_prf``
run no Spark job. CAND and DUPS hold each pair once. Each metric has a
DuckDB-oracle test in ``tests/test_evaluate.py``.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

_PAIR = ["rid_r", "rid_s"]
THRESHOLD = 0.5  # a pair is predicted duplicate iff P(dup) > 0.5 (§4.1)


def _prf(tp: int, n_pred: int, n_gold: int) -> dict:
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return {"precision": 100 * p, "recall": 100 * r, "f1": 100 * f1}


def _keys(pdf: pd.DataFrame) -> set:
    return set(zip(pdf.rid_r, pdf.rid_s))


def _hits(pairs: pd.DataFrame, keys: set) -> int:
    """How many rows of ``pairs`` are in ``keys``."""
    return sum(p in keys for p in zip(pairs.rid_r, pairs.rid_s))


def blocker_recall(cand: DataFrame, dups: pd.DataFrame) -> float:
    """Fraction of gold duplicates present in the candidate set."""
    hit = _hits(cand.select(_PAIR).toPandas(), _keys(dups))
    return 100.0 * hit / len(dups) if len(dups) else 0.0


def predicted_prf(pred: pd.DataFrame, dups: pd.DataFrame) -> dict:
    """P/R/F1 of the predicted duplicate pairs ``pred`` vs the gold DUPS."""
    return _prf(_hits(pred, _keys(dups)), len(pred), len(dups))


def all_pairs_prf(scored_cand: DataFrame, dups: pd.DataFrame) -> dict:
    """P/R/F1 of {cand pairs with prob > 0.5} vs the gold DUPS."""
    pred = scored_cand.filter(F.col("prob") > THRESHOLD).select(_PAIR).toPandas()
    return predicted_prf(pred, dups)


def test_prf(test: pd.DataFrame, scored_cand: pd.DataFrame) -> dict:
    """P/R/F1 on the labeled test pairs.

    A test pair is predicted duplicate iff it is in CAND *and* its
    matcher probability exceeds the threshold (§4.1: "the overall system
    predicts a record pair to be a duplicate only if the record pair is
    retrieved in CAND and the matcher assigns probability > 0.5"); its
    probability is read from ``scored_cand``.
    """
    pos = _keys(scored_cand[scored_cand.prob > THRESHOLD])
    pred = [p in pos for p in zip(test.rid_r, test.rid_s)]
    labels = test.label.tolist()
    return _prf(sum(p * y for p, y in zip(pred, labels)), sum(pred), sum(labels))
