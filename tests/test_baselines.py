"""Non-TPLM baseline: Random Forest + QBC over the Rules candidates."""
import pandas as pd
import pytest

from repro.core import baselines, dial
from repro.core.baselines import run_rf_qbc, score_forest
from repro.forest.features import PairFeaturizer
from repro.forest.forest import RandomForest, forest_proba, forest_vote_variance


def test_rf_loop_runs(runner):
    res = runner.rf_result("walmart_amazon")
    assert len(res["history"]) == runner.base_cfg["rounds"]
    f = res["final"]
    assert 0 <= f["all_pairs"]["f1"] <= 100
    assert f["rt_seconds"] > 0


def test_rf_labels_grow(runner):
    res = runner.rf_result("walmart_amazon")
    ns = [h["n_labeled"] for h in res["history"]]
    assert ns[-1] > ns[0]


def test_rf_learns_something(runner):
    """On the (clean) citation data the forest should be strong."""
    res = runner.rf_result("dblp_acm")
    assert res["final"]["all_pairs"]["f1"] > 50


def test_rf_qbc_live_seed0(spark, runner, wa, wa_store, monkeypatch):
    """A ``run_rf_qbc`` of its own (the tests above share the Runner's result).

    Seed-0 values of a live run are pinned, so a refactor of the loop
    cannot change them unnoticed; no D_test pair is sent to the labeler,
    and the caller's cached Rules CAND stays cached.
    """
    selected = []
    label_pairs = dial.label_pairs

    def spy(pairs, dup_set):
        selected.extend(zip(pairs.rid_r, pairs.rid_s))
        return label_pairs(pairs, dup_set)

    monkeypatch.setattr(dial, "label_pairs", spy)
    rules = runner.rules("walmart_amazon")
    res = run_rf_qbc(spark, wa, runner.config("walmart_amazon"), rules, store=wa_store)
    assert [h["n_labeled"] for h in res.history] == [36, 48]
    assert res.final["cand_recall"] == pytest.approx(91.30434782608695)
    assert res.final["test"] == pytest.approx(
        {"precision": 75.0, "recall": 42.857142857142854, "f1": 54.54545454545454}
    )
    assert res.final["all_pairs"] == pytest.approx(
        {"precision": 19.78021978021978, "recall": 78.26086956521739, "f1": 31.57894736842105}
    )
    assert len(selected) == 24
    assert not set(zip(wa.test_pdf.rid_r, wa.test_pdf.rid_s)) & set(selected)
    assert rules.is_cached


def test_score_forest_distributed_matches_driver(spark, runner, wa, wa_store, count_jobs):
    """Forest scores from the distributed plan equal the driver's, row by
    row in the input's order, and building the plan runs no Spark job."""
    feat = PairFeaturizer(
        wa.r_pdf, wa.s_pdf, wa_store.r_emb, wa_store.s_emb,
        wa_store.r_index, wa_store.s_index,
    )
    import pandas as pd

    T = pd.concat(
        [wa.seed_pos_pdf.head(8).assign(label=1), wa.seed_neg_pdf.head(8).assign(label=0)],
        ignore_index=True,
    )
    forest = RandomForest(n_trees=5, seed=0).fit(feat(T), T.label.to_numpy())
    pairs = pd.concat([wa.dups_pdf.head(10), wa.seed_neg_pdf.iloc[8:18]], ignore_index=True)
    pairs_df = spark.createDataFrame(pairs)
    plan = []
    assert count_jobs(
        lambda: plan.append(score_forest(spark, pairs_df, feat, forest.trees))
    ) == 0
    got = plan[0].toPandas()
    assert pairs_df.rdd.getNumPartitions() > 1
    assert list(zip(got.rid_r, got.rid_s)) == list(zip(pairs.rid_r, pairs.rid_s))
    import numpy as np

    X = feat(pairs)
    np.testing.assert_allclose(got.prob, forest_proba(forest.trees, X), atol=1e-9)
    np.testing.assert_allclose(got.variance, forest_vote_variance(forest.trees, X), atol=1e-9)


def test_rf_qbc_round_runs_three_spark_jobs(spark, runner, wa, wa_store, monkeypatch, count_jobs):
    """One RF-QBC round runs 3 Spark jobs: the collect of the scores and
    the two evaluation collects. The Rules CAND is laid out once per run,
    before the rounds."""
    jobs, run_rounds = [], baselines._run_rounds

    def counted(*a, **kw):
        out = []
        jobs.append(count_jobs(lambda: out.append(run_rounds(*a, **kw))))
        return out[0]

    monkeypatch.setattr(baselines, "_run_rounds", counted)
    cfg = runner.config("walmart_amazon", rounds=1)
    run_rf_qbc(spark, wa, cfg, runner.rules("walmart_amazon"), store=wa_store)
    assert jobs == [3]


def test_rf_qbc_scores_pairs_in_round_robin_order(spark, runner, wa, wa_store, monkeypatch):
    """Vote-variance ties are broken by the scores' row order. The frame
    ``run_rf_qbc`` scores has exactly the row order of the Rules CAND
    split round-robin into one partition per 512 pairs (2 to 16)."""
    rules = runner.rules("walmart_amazon")
    seen, score = [], baselines.score_forest

    def spy(spark_, pairs, *a, **kw):
        seen.append(pairs.toPandas())
        return score(spark_, pairs, *a, **kw)

    monkeypatch.setattr(baselines, "score_forest", spy)
    cfg = runner.config("walmart_amazon", rounds=1)
    run_rf_qbc(spark, wa, cfg, rules, store=wa_store)
    n_part = max(2, min(16, rules.count() // 512 or 2))
    want = rules.select("rid_r", "rid_s").repartition(n_part).toPandas()
    pd.testing.assert_frame_equal(seen[0], want)
