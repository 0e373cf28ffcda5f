"""The hand-crafted "Rules" blocker (§4.3).

The five real benchmarks ship pre-blocked by human-designed rules; we
play the domain expert for our synthetic families the same way the
Magellan guides recommend (brand/model keys for products, title-token
overlap for citations). The rules are deliberately reasonable, not
oracle-tuned: duplicates whose key tokens were damaged by the dirt
model are missed, which is exactly the headroom DIAL's learned blocker
exploits on Walmart-Amazon/Abt-Buy in the paper.

All rules are Spark SQL dataflows over token blocking.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.simjoin.tokens import shared_token_pairs


def _product_rules(ds) -> DataFrame:
    """key (model code) equality, OR same brand + >=2 shared title tokens."""
    r = ds.R.select(
        F.col("rid").alias("rid_r"), F.col("grp").alias("grp_r"), F.col("key").alias("key_r")
    )
    s = ds.S.select(
        F.col("rid").alias("rid_s"), F.col("grp").alias("grp_s"), F.col("key").alias("key_s")
    )
    key_match = (
        r.filter(F.col("key_r") != "")
        .join(s.filter(F.col("key_s") != ""), F.col("key_r") == F.col("key_s"))
        .select("rid_r", "rid_s")
    )
    shared = shared_token_pairs(ds.R, ds.S, "title")
    brand_match = (
        shared.filter(F.col("shared") >= 2)
        .join(r.filter(F.col("grp_r") != ""), "rid_r")
        .join(s.filter(F.col("grp_s") != ""), "rid_s")
        .filter(F.col("grp_r") == F.col("grp_s"))
        .select("rid_r", "rid_s")
    )
    return key_match.unionByName(brand_match).distinct()


def _citation_rules(ds) -> DataFrame:
    """>= 3 shared title tokens (classic overlap blocking)."""
    return (
        shared_token_pairs(ds.R, ds.S, "title")
        .filter(F.col("shared") >= 3)
        .select("rid_r", "rid_s")
    )


def _textual_rules(ds) -> DataFrame:
    """Long-text family: >= 4 shared tokens over the full text."""
    return (
        shared_token_pairs(ds.R, ds.S, "text")
        .filter(F.col("shared") >= 4)
        .select("rid_r", "rid_s")
    )


def rules_cand(spark: SparkSession, ds) -> DataFrame:
    """Candidate pairs under the dataset family's hand-crafted rule,
    with a pseudo-distance (negative shared-token count) so downstream
    code can treat it like any other CAND DataFrame."""
    kind = ds.spec.kind
    if kind == "product":
        pairs = _product_rules(ds)
    elif kind == "citation":
        pairs = _citation_rules(ds)
    else:
        pairs = _textual_rules(ds)
    shared = shared_token_pairs(ds.R, ds.S, "title")
    return (
        pairs.join(shared, ["rid_r", "rid_s"], "left")
        .withColumn("dist", -F.coalesce(F.col("shared"), F.lit(0)).cast("double"))
        .select("rid_r", "rid_s", "dist")
    )
