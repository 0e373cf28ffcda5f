"""Meta-blocking (§5.4: Papadakis et al.) as Spark dataflows.

Token blocking over all attribute values yields a redundancy-positive
block collection; the blocking graph weights each record pair by its
co-occurrence evidence, then prunes unpromising edges:

- **ARCS**: weight = sum over shared blocks of 1/||block|| — rarer
  blocks count more (the scheme JedAI's schema-agnostic workflow runs).
- **WNP** (weighted node pruning): keep an edge iff its weight reaches
  the mean edge weight of either endpoint.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.simjoin.tokens import explode_tokens


def blocking_graph(r_df: DataFrame, s_df: DataFrame) -> DataFrame:
    """DataFrame(rid_r, rid_s, weight): the ARCS-weighted blocking graph.

    Blocks are tokens of all attribute values (``text``); block cardinality ||b|| is the number
    of comparisons the block induces (n_r * n_s within the block).
    """
    rt = explode_tokens(r_df, "text").withColumnRenamed("id", "rid_r")
    st = explode_tokens(s_df, "text").withColumnRenamed("id", "rid_s")
    r_card = rt.groupBy("token").agg(F.count("*").alias("n_r"))
    s_card = st.groupBy("token").agg(F.count("*").alias("n_s"))
    card = (
        r_card.join(s_card, "token")
        .withColumn("block_card", F.col("n_r") * F.col("n_s"))
        .select("token", "block_card")
    )
    edges = rt.join(st, "token").join(card, "token")
    return edges.groupBy("rid_r", "rid_s").agg(F.sum(1.0 / F.col("block_card")).alias("weight"))


def weighted_node_pruning(graph: DataFrame) -> DataFrame:
    """WNP: keep edges with weight >= mean edge weight of either node."""
    r_mean = graph.groupBy("rid_r").agg(F.avg("weight").alias("r_mean"))
    s_mean = graph.groupBy("rid_s").agg(F.avg("weight").alias("s_mean"))
    return (
        graph.join(r_mean, "rid_r")
        .join(s_mean, "rid_s")
        .filter((F.col("weight") >= F.col("r_mean")) | (F.col("weight") >= F.col("s_mean")))
        .select("rid_r", "rid_s", "weight")
    )
