"""Non-TPLM baseline: Random Forest + learner-aware QBC (§4.3).

RF-QBC is a forest strategy for the shared round driver
(``repro.core.dial._run_rounds``) over the Rules candidate set, laid
out on the driver once per run: each round trains a bootstrap-bagged
forest on the labeled pairs, scores every candidate pair with all trees
in a distributed ``mapInPandas`` (featurizer + tree arrays broadcast —
committee scoring as a UDF over partitioned pairs), and queries the B
pairs with the highest bootstrap vote variance (Mozafari et al.). Final
verdict: forest probability > 0.5 on CAND.
"""
from __future__ import annotations

import time

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.core.dial import ALConfig, ALResult, _run_rounds
from repro.core.encoders import EmbeddingStore
from repro.forest.features import PairFeaturizer
from repro.forest.forest import RandomForest, forest_leaves, forest_proba, forest_vote_variance
from repro.spark import with_broadcasts

_SCHEMA = T.StructType(
    [
        T.StructField("rid_r", T.StringType()),
        T.StructField("rid_s", T.StringType()),
        T.StructField("prob", T.DoubleType()),
        T.StructField("variance", T.DoubleType()),
    ]
)


def score_forest(
    spark: SparkSession,
    pairs: DataFrame,
    featurizer: PairFeaturizer,
    trees: list[dict],
) -> DataFrame:
    """Distributed forest scoring: prob + QBC vote variance per pair, one
    task per partition of ``pairs``, rows in its order; the plan runs no
    Spark job. The broadcast is tied to the result
    (``repro.spark.release``)."""
    b = spark.sparkContext.broadcast((featurizer, trees))

    def part(batches):
        feat, trs = b.value
        for pdf in batches:
            if len(pdf) == 0:
                continue
            leaves = forest_leaves(trs, feat(pdf))
            yield pd.DataFrame(
                {
                    "rid_r": pdf.rid_r.values,
                    "rid_s": pdf.rid_s.values,
                    "prob": forest_proba(leaves),
                    "variance": forest_vote_variance(leaves),
                }
            )

    scored = pairs.select("rid_r", "rid_s").mapInPandas(part, _SCHEMA)
    return with_broadcasts(scored, b)


def run_rf_qbc(
    spark: SparkSession,
    ds,
    cfg: ALConfig,
    rules_cand_df: DataFrame,
    *,
    store: EmbeddingStore | None = None,
) -> ALResult:
    """Random-Forest AL with QBC selection on the Rules candidate set."""
    if store is None:
        store = EmbeddingStore(ds, cfg.d)
    featurizer = PairFeaturizer(
        ds.r_pdf, ds.s_pdf, store.r_emb, store.s_emb, store.r_index, store.s_index
    )

    def train(rnd, T_lab, times):
        t0 = time.perf_counter()
        forest = RandomForest(seed=cfg.seed * 100 + rnd).fit(
            featurizer(T_lab), T_lab.label.to_numpy()
        )
        times["train_matcher"] = time.perf_counter() - t0
        return forest.trees

    # CAND laid out on the driver once per run, in the row order of a
    # round-robin split into one partition per 512 pairs (2 to 16): until
    # ties are broken by pair id, that order breaks ``pick``'s ties
    n_part = max(2, min(16, rules_cand_df.count() // 512 or 2))
    rules = rules_cand_df.select("rid_r", "rid_s").repartition(n_part).toPandas()
    cand = spark.createDataFrame(rules, "rid_r string, rid_s string")

    def pick(selectable, T_lab, cand, trees, rng):
        return selectable.sort_values("variance", ascending=False, kind="stable").head(
            cfg.budget
        )

    return _run_rounds(
        ds, cfg, {**cfg.__dict__, "blocking": "rf_qbc"},
        train=train,
        score=lambda cand, trees: score_forest(spark, cand, featurizer, trees),
        pick=pick,
        cand=cand,
    )
