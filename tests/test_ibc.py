"""Index-By-Committee retrieval (Algorithm 1 lines 9-25)."""
import time
import uuid

import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.ibc import cand_size_for, knn_k_for, l2_normalize, retrieve_cand
from repro.index.brute import knn_numpy
from repro.oracle import assert_equivalent


def _toy_embs(seed, n_r=30, n_s=50, d=8):
    rng = np.random.default_rng(seed)
    return (
        [f"r{i}" for i in range(n_r)],
        [f"s{i}" for i in range(n_s)],
        rng.standard_normal((n_r, d)),
        rng.standard_normal((n_s, d)),
    )


def test_l2_normalize():
    m = np.array([[3.0, 4.0], [0.0, 0.0]])
    out = l2_normalize(m)
    np.testing.assert_allclose(out[0], [0.6, 0.8])
    np.testing.assert_allclose(out[1], [0.0, 0.0])  # zero row stays zero


@pytest.mark.parametrize(
    "n_r, n_s, k, cand_size",
    [
        pytest.param(30, 50, 3, 40, id="default"),
        pytest.param(3, 10, 5, 1000, id="k_above_R"),
        pytest.param(1, 20, 3, 100, id="one_R"),
        pytest.param(30, 1, 3, 100, id="one_S"),
        pytest.param(30, 0, 3, 40, id="empty_S"),
        pytest.param(30, 50, 3, 0, id="zero_cand_size"),
    ],
)
def test_retrieve_cand_schema_and_size(spark, n_r, n_s, k, cand_size):
    r_rids, s_rids, r_emb, s_emb = _toy_embs(0, n_r=n_r, n_s=n_s)
    cand = retrieve_cand(spark, r_rids, s_rids, [r_emb], [s_emb], k=k, cand_size=cand_size)
    assert cand.schema.simpleString() == "struct<rid_r:string,rid_s:string,dist:double>"
    pdf = cand.toPandas()
    assert list(pdf.columns) == ["rid_r", "rid_s", "dist"]
    assert len(pdf) == min(cand_size, n_s * min(k, n_r))
    assert not pdf.duplicated(["rid_r", "rid_s"]).any()


def test_retrieve_cand_single_member_is_knn_prefix(spark):
    """With one member, CAND = the globally closest retrieved pairs."""
    r_rids, s_rids, r_emb, s_emb = _toy_embs(1)
    cand = retrieve_cand(spark, r_rids, s_rids, [r_emb], [s_emb], k=2, cand_size=25)
    pdf = cand.toPandas().sort_values("dist")
    # oracle: all (s, top-2 r) pairs, keep smallest 25 distances
    idx, dist = knn_numpy(s_emb, r_emb, 2)
    flat = sorted(dist.ravel())[:25]
    np.testing.assert_allclose(sorted(pdf.dist), flat, atol=1e-9)


def test_union_superset_property(spark):
    """Every member's best-ranked pairs survive into a large-enough CAND."""
    r_rids, s_rids, r_emb, s_emb = _toy_embs(2)
    rng = np.random.default_rng(3)
    r2 = r_emb + rng.standard_normal(r_emb.shape)
    s2 = s_emb + rng.standard_normal(s_emb.shape)
    big = retrieve_cand(
        spark, r_rids, s_rids, [r_emb, r2], [s_emb, s2], k=2, cand_size=10_000
    ).toPandas()
    m1 = retrieve_cand(spark, r_rids, s_rids, [r_emb], [s_emb], k=2, cand_size=10_000).toPandas()
    m2 = retrieve_cand(spark, r_rids, s_rids, [r2], [s2], k=2, cand_size=10_000).toPandas()
    union = set(zip(m1.rid_r, m1.rid_s)) | set(zip(m2.rid_r, m2.rid_s))
    got = set(zip(big.rid_r, big.rid_s))
    assert got == union


def test_committee_recall_at_least_best_member(spark, runner):
    """On real data with ample CAND budget, the union cannot lose pairs."""
    from repro.core.evaluate import blocker_recall

    ds = runner.dataset("walmart_amazon")
    store = runner.store("walmart_amazon")
    rng = np.random.default_rng(0)
    r1 = l2_normalize(store.r_emb)
    s1 = l2_normalize(store.s_emb)
    r2 = l2_normalize(store.r_emb + 0.1 * rng.standard_normal(store.r_emb.shape))
    s2 = l2_normalize(store.s_emb + 0.1 * rng.standard_normal(store.s_emb.shape))
    big = 10 * len(store.s_rids)
    rec_union = blocker_recall(
        retrieve_cand(spark, store.r_rids, store.s_rids, [r1, r2], [s1, s2], 3, big),
        ds.dups_pdf,
    )
    rec_single = blocker_recall(
        retrieve_cand(spark, store.r_rids, store.s_rids, [r1], [s1], 3, big), ds.dups_pdf
    )
    assert rec_union >= rec_single - 1e-9


def test_retrieval_dedup_oracle(spark):
    """Dedup + min-dist aggregation matches DuckDB over the raw union."""
    r_rids, s_rids, r_emb, s_emb = _toy_embs(4, n_r=10, n_s=12, d=4)
    cand = retrieve_cand(
        spark, r_rids, s_rids, [r_emb, r_emb], [s_emb, s_emb], k=2, cand_size=10_000
    ).select("rid_r", "rid_s", "dist")
    single = retrieve_cand(
        spark, r_rids, s_rids, [r_emb], [s_emb], k=2, cand_size=10_000
    ).select("rid_r", "rid_s", "dist").toPandas()
    # identical members -> dedup to the single-member result
    assert_equivalent(
        cand,
        "SELECT rid_r, rid_s, dist FROM single",
        single=single,
    )


def _member_knn(r_rids, s_rids, r_embs, s_embs, k) -> pd.DataFrame:
    """RP: every member's numpy k-NN pairs as (member, qid, iid, dist)."""
    rp = []
    for m, (re, se) in enumerate(zip(r_embs, s_embs)):
        idx, dist = knn_numpy(se, re, k)
        rp.append(
            pd.DataFrame(
                {
                    "member": m,
                    "qid": np.repeat(s_rids, idx.shape[1]),
                    "iid": np.asarray(r_rids)[idx.ravel()],
                    "dist": dist.ravel(),
                }
            )
        )
    return pd.concat(rp, ignore_index=True)


def _merge_sql(n: int) -> str:
    """The committee merge over table ``rp``, in CAND's row order."""
    return f"""
        SELECT iid AS rid_r, qid AS rid_s, dist FROM (
          SELECT qid, iid, min(rank) AS rank, min(dist) AS dist FROM (
            SELECT *, row_number() OVER (
              PARTITION BY member ORDER BY dist, qid, iid) AS rank
            FROM rp) t
          GROUP BY qid, iid) c
        ORDER BY rank, dist, qid, iid
        LIMIT {n}
    """


def test_committee_merge_oracle(spark):
    """Rank merge of three distinct members under a binding |CAND| limit
    matches DuckDB over the per-member numpy k-NN results."""
    r_rids, s_rids, r_emb, s_emb = _toy_embs(5)
    rng = np.random.default_rng(6)
    r_embs = [r_emb] + [r_emb + rng.standard_normal(r_emb.shape) for _ in range(2)]
    s_embs = [s_emb] + [s_emb + rng.standard_normal(s_emb.shape) for _ in range(2)]
    k, n = 2, 25
    rp = _member_knn(r_rids, s_rids, r_embs, s_embs, k)
    assert rp.groupby(["qid", "iid"]).ngroups > 4 * n  # the limit binds
    cand = retrieve_cand(spark, r_rids, s_rids, r_embs, s_embs, k=k, cand_size=n)
    assert_equivalent(cand, _merge_sql(n), rp=rp)
    # every member contributes: CAND is no single member's top-n
    pdf = cand.toPandas()
    got = set(zip(pdf.rid_r, pdf.rid_s))
    for m in range(3):
        top = rp[rp.member == m].nsmallest(n, "dist")
        assert got != set(zip(top.iid, top.qid))


def test_committee_merge_oracle_with_ties(spark):
    """Exact distance ties within a member (duplicated embedding rows)
    and across members (two identical members): CAND equals the DuckDB
    merge, and its collected row order is the SQL's ORDER BY: the order
    in which ``score_pairs`` scores CAND, slice by contiguous slice."""
    rng = np.random.default_rng(7)
    # small integer coordinates: every distance is exact, so ties are
    # exact whatever order the sums run in
    r_emb = rng.integers(-2, 3, (12, 3)).astype(float)
    s_emb = rng.integers(-2, 3, (20, 3)).astype(float)
    r_emb = np.vstack([r_emb, r_emb[:6]])  # duplicated index rows
    s_emb = np.vstack([s_emb, s_emb[:10]])  # duplicated query rows
    r_rids = [f"r{i}" for i in range(len(r_emb))]
    s_rids = [f"s{i}" for i in range(len(s_emb))]
    other_r = rng.integers(-2, 3, r_emb.shape).astype(float)
    other_s = rng.integers(-2, 3, s_emb.shape).astype(float)
    r_embs, s_embs = [r_emb, r_emb, other_r], [s_emb, s_emb, other_s]
    k, n = 3, 40
    rp = _member_knn(r_rids, s_rids, r_embs, s_embs, k)
    assert rp.duplicated(["member", "dist"]).any()  # ties within a member
    assert rp.groupby(["qid", "iid"]).ngroups > 2 * n  # the limit binds
    cand = retrieve_cand(spark, r_rids, s_rids, r_embs, s_embs, k=k, cand_size=n)
    assert_equivalent(cand, _merge_sql(n), rp=rp)
    con = duckdb.connect()
    try:
        con.register("rp", rp)
        expected = con.execute(_merge_sql(n)).fetchdf()
    finally:
        con.close()
    pd.testing.assert_frame_equal(cand.toPandas(), expected, check_dtype=False)


def test_retrieve_cand_plan_has_no_wide_shuffle(spark):
    """Retrieval runs one Spark job, the k-NN: one stage of at most one
    task per core, no shuffle (the committee merges on the driver).
    Adaptive execution would coalesce a shuffle of toy data into one
    task, so its coalescing is off here to expose the plan's own
    partition counts."""
    r_rids, s_rids, r_emb, s_emb = _toy_embs(8)
    sc = spark.sparkContext
    coalesce = "spark.sql.adaptive.coalescePartitions.enabled"
    was = spark.conf.get(coalesce)
    group = f"retrieve-cand-{uuid.uuid4()}"
    spark.conf.set(coalesce, "false")
    sc.setJobGroup(group, "retrieve one CAND")
    try:
        retrieve_cand(spark, r_rids, s_rids, [r_emb] * 3, [s_emb] * 3, k=3, cand_size=40)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
        spark.conf.set(coalesce, was)
    st = sc.statusTracker()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:  # the listener records jobs asynchronously
        jobs = [st.getJobInfo(j) for j in st.getJobIdsForGroup(group)]
        if jobs and all(j is not None and j.status == "SUCCEEDED" for j in jobs):
            break
        time.sleep(0.05)
    assert len(jobs) == 1 and jobs[0].status == "SUCCEEDED"
    (stage,) = [st.getStageInfo(s) for s in jobs[0].stageIds]
    assert 1 <= stage.numCompletedTasks <= sc.defaultParallelism


def test_cand_size_rules():
    assert cand_size_for("walmart_amazon", 100) == 300
    assert cand_size_for("abt_buy", 100) == 2000
    assert cand_size_for("walmart_amazon", 100, "medium") == 300
    assert cand_size_for("abt_buy", 100, "medium") == 1000
    assert cand_size_for("walmart_amazon", 100, "large") == 500
    assert cand_size_for("abt_buy", 100, "large") == 2000
    with pytest.raises(ValueError):
        cand_size_for("x", 10, "tiny")


def test_knn_k_rules():
    assert knn_k_for("abt_buy") == 20
    assert knn_k_for("walmart_amazon") == 3
