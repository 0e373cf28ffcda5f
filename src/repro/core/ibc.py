"""Index-By-Committee retrieval (Algorithm 1, lines 9-25).

For each committee member: index the member embeddings of all r in R,
probe with every s in S for its k nearest neighbours. All members run in
one distributed exact k-NN job (``repro.index.brute.knn_join``): the
member matrices are broadcast and the queries are sent as ids of fixed
row blocks, one task per core. The N·k·|S| retrieved pairs are collected
and merged on the driver: each member's pairs are ranked by its own
distances, the union RP is deduplicated keeping the best rank and the
minimum distance, and the closest |CAND| pairs, in that order, form the
candidate set, a driver-backed frame in ``defaultParallelism``
contiguous slices that scoring reads in one wave of tasks.

The same routine serves the single-embedding baselines (PairedFixed,
PairedAdapt, SentenceBERT) with a one-member "committee".
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.index.brute import knn_join
from repro.spark import release


def l2_normalize(m: np.ndarray) -> np.ndarray:
    """Row-normalize so L2 k-NN is cosine retrieval (used for every
    blocking method so comparisons isolate the *embeddings*, not the
    metric)."""
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)


CAND_SCHEMA = "rid_r string, rid_s string, dist double"


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
    paper's "create index on R, probe with each s in S". Runs the k-NN
    job, releases its broadcast, and returns CAND sorted by (rank, dist,
    rid_s, rid_r) as a driver-backed frame (typed even when empty).
    """
    knn = knn_join(spark, s_rids, s_embs_by_member, r_rids, r_embs_by_member, k)
    try:
        rp = knn.toPandas()
    finally:
        release(knn)
    return spark.createDataFrame(_merge_committee(rp, int(cand_size)), CAND_SCHEMA)


def _merge_committee(rp: pd.DataFrame, n: int) -> pd.DataFrame:
    """RP(member, qid, iid, dist) → the n best pairs (rid_r, rid_s, dist).
    Ranking each member's pairs by its own distances makes the merge
    scale-free: each member's best pairs get an equal claim on the
    budget. Sorts run on integer ranks of the rids, in string order."""
    qids, q = np.unique(rp.qid.to_numpy(), return_inverse=True)
    iids, i = np.unique(rp.iid.to_numpy(), return_inverse=True)
    member, dist = rp.member.to_numpy(), rp.dist.to_numpy()
    order = np.lexsort((i, q, dist, member))
    by_member = member[order]
    rank = np.empty(len(rp), dtype=np.int64)
    rank[order] = np.arange(len(rp)) - np.searchsorted(by_member, by_member) + 1
    # one row per pair: its best rank and its minimum distance
    pair = q.astype(np.int64) * len(iids) + i
    order = np.argsort(pair, kind="stable")
    starts = np.flatnonzero(np.diff(pair[order], prepend=-1))
    first = order[starts]
    rank = np.minimum.reduceat(rank[order], starts)
    dist = np.minimum.reduceat(dist[order], starts)
    top = np.lexsort((i[first], q[first], dist, rank))[:n]
    return pd.DataFrame(
        {"rid_r": iids[i[first[top]]], "rid_s": qids[q[first[top]]], "dist": dist[top]}
    )


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
