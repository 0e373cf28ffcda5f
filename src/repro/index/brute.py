"""Exact k-NN retrieval: distributed (Spark) and driver (numpy) paths.

Both sides (lists R and S, per committee member) are a few thousand x d
floats, so every member's matrices ride one broadcast. The queries are
cut into fixed row blocks and only block ids are sent
(``spark.range``), spread over one task per core
(``defaultParallelism``) so each core unpickles the broadcast once;
``mapInPandas`` computes squared-L2 top-k of each block for all members
in one Spark job. Exactness makes the DuckDB/numpy oracle checks in
tests strict.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.spark import with_broadcasts


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
    id order. One broadcast carries all of them plus both id arrays. The
    queries are cut into ``max(2, min(16, n // 64))`` blocks of
    consecutive rows, a function of n alone: BLAS may round a distance
    differently in a different block of query rows, so fixed blocks keep
    every ``dist`` the same bits whatever the core count. The query side
    is the block ids (``spark.range``) in ``min(#blocks,
    defaultParallelism)`` partitions; each runs ``knn_numpy`` per block
    and member. Returns DataFrame(member, qid, iid, dist) with ``dist``
    = squared L2 (the paper retrieves by L2, §4.2); the broadcast is
    tied to it (``repro.spark.release``).
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

    n_q = len(query_ids)
    n_blocks = max(2, min(16, n_q // 64))

    def part(batches):
        Qs, Xs, qids, iids, kk = b.value
        for pdf in batches:
            for blk in pdf["id"].to_numpy():
                rows = np.arange(blk * n_q // n_blocks, (blk + 1) * n_q // n_blocks)
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

    n_part = min(n_blocks, spark.sparkContext.defaultParallelism)
    knn = spark.range(n_blocks, numPartitions=n_part).mapInPandas(
        part, schema="member int, qid string, iid string, dist double"
    )
    return with_broadcasts(knn, b)
