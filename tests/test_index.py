"""k-NN index substrate: distributed retrieval vs numpy/DuckDB oracles."""
import numpy as np
import pandas as pd
import pytest

from repro.index.brute import knn_join, knn_numpy, _sq_dists
from repro.index.kmeans import kmeans_pp_indices
from repro.oracle import assert_equivalent


def test_sq_dists_matches_numpy():
    rng = np.random.default_rng(0)
    q, x = rng.standard_normal((7, 5)), rng.standard_normal((9, 5))
    want = ((q[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    np.testing.assert_allclose(_sq_dists(q, x), want, atol=1e-9)


def test_knn_numpy_exact():
    rng = np.random.default_rng(1)
    q, x = rng.standard_normal((20, 6)), rng.standard_normal((50, 6))
    idx, dist = knn_numpy(q, x, 4)
    full = ((q[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    want_idx = np.argsort(full, axis=1)[:, :4]
    want_dist = np.take_along_axis(full, want_idx, axis=1)
    np.testing.assert_allclose(dist, want_dist, atol=1e-9)
    # indices may differ on exact ties; distances must match exactly
    np.testing.assert_allclose(
        np.take_along_axis(full, idx, axis=1), want_dist, atol=1e-9
    )


def test_knn_numpy_sorted_ascending():
    rng = np.random.default_rng(2)
    _, dist = knn_numpy(rng.standard_normal((10, 4)), rng.standard_normal((30, 4)), 5)
    assert np.all(np.diff(dist, axis=1) >= -1e-12)


def test_knn_numpy_k_larger_than_index():
    idx, dist = knn_numpy(np.zeros((3, 2)), np.ones((2, 2)), 10)
    assert idx.shape == (3, 2)


def test_knn_join_matches_numpy(spark):
    rng = np.random.default_rng(3)
    q = rng.standard_normal((40, 8))
    x = rng.standard_normal((25, 8))
    qids = np.array([f"q{i}" for i in range(40)])
    xids = np.array([f"x{i}" for i in range(25)])
    got = knn_join(spark, qids, [q], xids, [x], 3).toPandas()
    assert len(got) == 40 * 3
    idx, dist = knn_numpy(q, x, 3)
    want = {
        (f"q{i}",): sorted(dist[i].round(9)) for i in range(40)
    }
    for qid, grp in got.groupby("qid"):
        i = int(qid[1:])
        np.testing.assert_allclose(
            sorted(grp.dist.values), sorted(dist[i]), atol=1e-9
        )


def test_knn_join_oracle(spark):
    """Distributed top-k agrees with a DuckDB window-function query."""
    rng = np.random.default_rng(4)
    q = rng.standard_normal((15, 3))
    x = rng.standard_normal((10, 3))
    qids = np.array([f"q{i}" for i in range(15)])
    xids = np.array([f"x{i}" for i in range(10)])
    got = knn_join(spark, qids, [q], xids, [x], 2).select("qid", "dist")
    qpdf = pd.DataFrame({"qid": qids, "a": q[:, 0], "b": q[:, 1], "c": q[:, 2]})
    xpdf = pd.DataFrame({"iid": xids, "a": x[:, 0], "b": x[:, 1], "c": x[:, 2]})
    assert_equivalent(
        got,
        """
        SELECT qid, dist FROM (
          SELECT q.qid,
                 (q.a-x.a)^2 + (q.b-x.b)^2 + (q.c-x.c)^2 AS dist,
                 row_number() OVER (PARTITION BY q.qid ORDER BY
                   (q.a-x.a)^2 + (q.b-x.b)^2 + (q.c-x.c)^2, x.iid) AS rn
          FROM q CROSS JOIN x) t
        WHERE rn <= 2
        """,
        q=qpdf,
        x=xpdf,
    )


def test_knn_join_deterministic(spark):
    rng = np.random.default_rng(5)
    q = rng.standard_normal((12, 4))
    x = rng.standard_normal((9, 4))
    qids = np.array([f"q{i}" for i in range(12)])
    xids = np.array([f"x{i}" for i in range(9)])
    a = knn_join(spark, qids, [q], xids, [x], 3).toPandas().sort_values(["qid", "iid"]).reset_index(drop=True)
    b = knn_join(spark, qids, [q], xids, [x], 3).toPandas().sort_values(["qid", "iid"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


# -- k-means++ --------------------------------------------------------------

def test_kmeanspp_count_and_uniqueness():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 4))
    idx = kmeans_pp_indices(X, 10, np.random.default_rng(1))
    assert len(idx) == 10 == len(set(idx.tolist()))


def test_kmeanspp_k_capped_at_n():
    X = np.zeros((3, 2))
    idx = kmeans_pp_indices(X, 10, np.random.default_rng(0))
    assert sorted(idx.tolist()) == [0, 1, 2]


def test_kmeanspp_spreads_over_clusters():
    """Seeds land in all well-separated clusters (the diversity BADGE
    relies on, §2.3.4)."""
    rng = np.random.default_rng(2)
    centers = np.array([[0, 0], [100, 0], [0, 100], [100, 100.0]])
    X = np.concatenate([c + rng.standard_normal((20, 2)) for c in centers])
    idx = kmeans_pp_indices(X, 4, np.random.default_rng(3))
    found_clusters = {int(i) // 20 for i in idx}
    assert found_clusters == {0, 1, 2, 3}


def test_kmeanspp_k_zero():
    assert len(kmeans_pp_indices(np.zeros((5, 2)), 0, np.random.default_rng(0))) == 0


def test_kmeanspp_deterministic_in_rng():
    X = np.random.default_rng(0).standard_normal((30, 3))
    a = kmeans_pp_indices(X, 5, np.random.default_rng(7))
    b = kmeans_pp_indices(X, 5, np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)
