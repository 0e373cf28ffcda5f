"""Token blocking primitives as Spark DataFrame pipelines.

``explode_tokens`` implements the same tokenization as
``repro.text.tokenize`` but in Spark SQL (regexp split), so the
blocking layer and the learned layer agree on what a token is — tests
assert the two tokenizations are identical via the DuckDB oracle.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def explode_tokens(df: DataFrame, col: str) -> DataFrame:
    """DataFrame(id, token) with one row per distinct token of ``col``;
    ``id`` is the record's ``rid``."""
    toks = F.split(F.regexp_replace(F.lower(F.col(col)), "[^a-z0-9]+", " "), " ")
    return (
        df.select(F.col("rid").alias("id"), F.explode(toks).alias("token"))
        .filter(F.col("token") != "")
        .distinct()
    )


def token_counts(df: DataFrame, col: str) -> DataFrame:
    """DataFrame(id, n_tokens): distinct-token count per record."""
    return explode_tokens(df, col).groupBy("id").agg(
        F.count("*").alias("n_tokens")
    )


def shared_token_pairs(r_df: DataFrame, s_df: DataFrame, col: str) -> DataFrame:
    """DataFrame(rid_r, rid_s, shared): pairs sharing >=1 token of ``col``
    with the count of shared distinct tokens — classic token blocking."""
    rt = explode_tokens(r_df, col).withColumnRenamed("id", "rid_r")
    st = explode_tokens(s_df, col).withColumnRenamed("id", "rid_s")
    return (
        rt.join(st, on="token")
        .groupBy("rid_r", "rid_s")
        .agg(F.count("*").alias("shared"))
    )


def jaccard_pairs(r_df: DataFrame, s_df: DataFrame, col: str) -> DataFrame:
    """DataFrame(rid_r, rid_s, shared, jaccard) over token-blocked pairs.

    jaccard = shared / (|tokens_r| + |tokens_s| - shared). Pairs sharing
    no token are (correctly) absent — their jaccard is 0.
    """
    pairs = shared_token_pairs(r_df, s_df, col)
    rc = token_counts(r_df, col).withColumnRenamed("id", "rid_r").withColumnRenamed(
        "n_tokens", "n_r"
    )
    sc = token_counts(s_df, col).withColumnRenamed("id", "rid_s").withColumnRenamed(
        "n_tokens", "n_s"
    )
    return (
        pairs.join(rc, "rid_r")
        .join(sc, "rid_s")
        .withColumn(
            "jaccard",
            F.col("shared") / (F.col("n_r") + F.col("n_s") - F.col("shared")),
        )
        .select("rid_r", "rid_s", "shared", "jaccard")
    )
