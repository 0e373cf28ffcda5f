"""Exact k-NN retrieval: distributed (Spark) and driver (numpy) paths.

Both sides (lists R and S, per committee member) are a few thousand x d
floats, so every member's matrices ride one broadcast. The queries are
sent as row ids only (``spark.range(|S|)``); ``mapInPandas`` slices each
batch's query rows and computes squared-L2 top-k for all members in one
Spark job. Exactness makes the DuckDB/numpy oracle checks in tests strict.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _sq_dists(Q: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(n_q, n_x) squared L2 distances."""
    q2 = (Q * Q).sum(axis=1)[:, None]
    x2 = (X * X).sum(axis=1)[None, :]
    d = q2 + x2 - 2.0 * (Q @ X.T)
    np.maximum(d, 0.0, out=d)
    return d


def knn_numpy(Q: np.ndarray, X: np.ndarray, k: int):
    """Driver-side exact top-k: returns (idx (n_q,k), dist (n_q,k))."""
    k = min(k, X.shape[0])
    d = _sq_dists(Q, X)
    idx = np.argpartition(d, k - 1, axis=1)[:, :k]
    dd = np.take_along_axis(d, idx, axis=1)
    order = np.argsort(dd, axis=1, kind="stable")
    return np.take_along_axis(idx, order, axis=1), np.take_along_axis(dd, order, axis=1)


def knn_join(
    spark: SparkSession,
    query_ids: list[str],
    query_embs: list[np.ndarray],
    index_ids: list[str],
    index_embs: list[np.ndarray],
    k: int,
) -> DataFrame:
    """Distributed exact k-NN for every member in one Spark job.

    ``query_embs[m]``/``index_embs[m]`` are member m's (n, d) matrices in
    id order. One broadcast carries all of them plus both id arrays; the
    query side is only row numbers (``spark.range``), and each batch
    slices its rows and runs ``knn_numpy`` per member. Returns
    DataFrame(member, qid, iid, dist) with ``dist`` = squared L2 (the
    paper retrieves by L2, §4.2).
    """
    assert len(query_embs) == len(index_embs) >= 1
    b = spark.sparkContext.broadcast(
        (
            list(query_embs),
            list(index_embs),
            np.asarray(query_ids, dtype=object),
            np.asarray(index_ids, dtype=object),
            int(k),
        )
    )

    def part(batches):
        Qs, Xs, qids, iids, kk = b.value
        for pdf in batches:
            rows = pdf["id"].to_numpy()
            if len(rows) == 0:
                continue
            for m, (Q, X) in enumerate(zip(Qs, Xs)):
                idx, dist = knn_numpy(Q[rows], X, kk)
                yield pd.DataFrame(
                    {
                        "member": m,
                        "qid": np.repeat(qids[rows], idx.shape[1]),
                        "iid": iids[idx.ravel()],
                        "dist": dist.ravel(),
                    }
                )

    n_q = len(query_ids)
    queries = spark.range(n_q, numPartitions=max(2, min(16, n_q // 64 or 2)))
    return queries.mapInPandas(part, schema="member int, qid string, iid string, dist double")
