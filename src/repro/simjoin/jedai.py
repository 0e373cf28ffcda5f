"""JedAI-style end-to-end ER pipelines (§4.3), non-learning baselines.

- **schema-based**: similarity join on the key attribute (title token
  Jaccard >= t) → predicted duplicates. Mirrors JedAI's schema-based
  workflow built on similarity joins.
- **schema-agnostic**: token blocking over ALL attribute values →
  meta-blocking (ARCS weights + weighted node pruning) → Jaccard
  verification threshold → predicted duplicates.

As in the paper, each workflow's configuration (the thresholds) is
grid-searched against the gold duplicate list and the best-F1 config is
reported.
"""
from __future__ import annotations

import time

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.evaluate import predicted_prf
from repro.simjoin.metablock import blocking_graph, weighted_node_pruning
from repro.simjoin.tokens import jaccard_pairs

_PAIR = ["rid_r", "rid_s"]


def _best_config(pairs: DataFrame, dups, thresholds) -> dict:
    """Metrics of the best-F1 threshold: one collect of the pairs at or
    above the lowest threshold, each threshold scored on the driver."""
    pdf = (
        pairs.filter(F.col("jaccard") >= min(thresholds))
        .select(*_PAIR, "jaccard")
        .toPandas()
    )
    best = None
    for t in thresholds:
        m = predicted_prf(pdf[pdf.jaccard >= t], dups)
        if best is None or m["f1"] > best["f1"]:
            best = {**m, "threshold": t}
    return best


def schema_based(
    spark: SparkSession, ds, thresholds=(0.3, 0.4, 0.5, 0.6, 0.7)
) -> dict:
    """Similarity-join workflow; returns best-config metrics + RT."""
    t0 = time.perf_counter()
    best = _best_config(jaccard_pairs(ds.R, ds.S, "title"), ds.dups_pdf, thresholds)
    best["rt_seconds"] = time.perf_counter() - t0
    return best


def schema_agnostic(
    spark: SparkSession, ds, thresholds=(0.2, 0.3, 0.4, 0.5, 0.6)
) -> dict:
    """Token blocking + meta-blocking + verification; best-config metrics."""
    t0 = time.perf_counter()
    graph = weighted_node_pruning(blocking_graph(ds.R, ds.S))
    verified = graph.join(jaccard_pairs(ds.R, ds.S, "text"), _PAIR, "inner")
    best = _best_config(verified, ds.dups_pdf, thresholds)
    best["rt_seconds"] = time.perf_counter() - t0
    return best
