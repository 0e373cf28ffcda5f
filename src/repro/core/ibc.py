"""Index-By-Committee retrieval (Algorithm 1, lines 9-25).

For each committee member: index the member embeddings of all r in R,
probe with every s in S for its k nearest neighbours. All members run in
one distributed exact k-NN job (``repro.index.brute.knn_join``): the
member matrices are broadcast and the queries are sent as ids of fixed
row blocks, one task per core. The N·k·|S| retrieved pairs then shuffle
into one partition, where a single pandas reducer merges the committee
(no shuffle into ``spark.sql.shuffle.partitions``): each member's pairs
are ranked by its own distances, the union RP is deduplicated keeping
the best rank and the minimum distance, and the closest |CAND| pairs,
in that order, form the candidate set.

The same routine serves the single-embedding baselines (PairedFixed,
PairedAdapt, SentenceBERT) with a one-member "committee".
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.index.brute import knn_join
from repro.spark import broadcasts, with_broadcasts


def l2_normalize(m: np.ndarray) -> np.ndarray:
    """Row-normalize so L2 k-NN is cosine retrieval (used for every
    blocking method so comparisons isolate the *embeddings*, not the
    metric)."""
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


def retrieve_cand(
    spark: SparkSession,
    r_rids: list[str],
    s_rids: list[str],
    r_embs_by_member: list[np.ndarray],
    s_embs_by_member: list[np.ndarray],
    k: int,
    cand_size: int,
) -> DataFrame:
    """→ DataFrame(rid_r, rid_s, dist): the |CAND| closest retrieved pairs.

    ``*_embs_by_member[m]`` is the (n, d) member-m embedding matrix in
    rid order. S records are the queries, R is indexed — matching the
    paper's "create index on R, probe with each s in S". The plan is
    lazy; its one partition holds CAND sorted by (rank, dist, rid_s,
    rid_r), and ``repro.spark.release`` frees its broadcast.
    """
    knn = knn_join(spark, s_rids, s_embs_by_member, r_rids, r_embs_by_member, k)
    n = int(cand_size)

    def merge(batches):
        parts = list(batches)
        if not parts:  # empty S: the reducer gets no batches
            return
        rp = pd.concat(parts, ignore_index=True)
        # rank each member's retrieved pairs by its own distances so the
        # merge across members is scale-free: each member's best pairs
        # get an equal claim on the candidate budget ("closest pairs
        # from RP", robust to members with different distance scales)
        rp = rp.sort_values(["member", "dist", "qid", "iid"], ignore_index=True)
        rp["rank"] = rp.groupby("member").cumcount() + 1
        cand = (
            rp.groupby(["qid", "iid"], as_index=False)
            .agg(rank=("rank", "min"), dist=("dist", "min"))
            .sort_values(["rank", "dist", "qid", "iid"])
            .head(n)
        )
        yield cand.rename(columns={"iid": "rid_r", "qid": "rid_s"})[["rid_r", "rid_s", "dist"]]

    cand = knn.repartition(1).mapInPandas(merge, schema="rid_r string, rid_s string, dist double")
    return with_broadcasts(cand, *broadcasts(knn))


def cand_size_for(ds_name: str, n_s: int, size: str = "default") -> int:
    """The paper's candidate-set sizing rules (§4.2, Table 6).

    Abt-Buy's S list is tiny so it uses 20·|S| by default (k=20); other
    datasets use 3·|S| (k=3). Table 6's sweep: small = 3·|DUPS| (handled
    by the caller, needs |DUPS|), medium = 3·|S| (10·|S| for Abt-Buy),
    large = 5·|S| (20·|S| for Abt-Buy).
    """
    abt = ds_name == "abt_buy"
    if size == "default":
        return (20 if abt else 3) * n_s
    if size == "medium":
        return (10 if abt else 3) * n_s
    if size == "large":
        return (20 if abt else 5) * n_s
    raise ValueError(size)


def knn_k_for(ds_name: str) -> int:
    return 20 if ds_name == "abt_buy" else 3
