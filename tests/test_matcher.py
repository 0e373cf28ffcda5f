"""The paired-mode matcher (Eq 5/6): training, inference, distributed
scoring, and the single-mode adapted embeddings."""
import time
import uuid

import numpy as np
import pandas as pd
import pytest

from repro.core.matcher import (
    HIDDEN,
    Matcher,
    pair_align_features,
    predict_from_params,
    score_pairs,
)


def _proba(m, er, es, align):
    return predict_from_params(m.params(), er, es, align)[0]


@pytest.fixture(scope="module")
def trained(runner, wa, wa_store):
    pos = wa.seed_pos_pdf.head(10).assign(label=1)
    neg = wa.seed_neg_pdf.head(14).assign(label=0)
    T = pd.concat([pos, neg], ignore_index=True)
    er, es = wa_store.pair_embs(T)
    align = pair_align_features(wa_store, T)
    m = Matcher(wa_store.d, seed=0)
    trace = m.fit(er, es, align, T.label.to_numpy().astype(float), epochs=25, seed=0)
    return m, T, er, es, align, trace


def test_training_reduces_loss(trained):
    *_, trace = trained
    assert trace[-1] < 0.7 * trace[0]


def test_training_fits_training_set(trained):
    m, T, er, es, align, _ = trained
    p = _proba(m, er, es, align)
    acc = ((p > 0.5) == T.label.to_numpy()).mean()
    assert acc > 0.85


def test_probabilities_bounded(trained):
    m, T, er, es, align, _ = trained
    p = _proba(m, er, es, align)
    assert np.all(p > 0) and np.all(p < 1)


def test_identity_init_keeps_adapted_close_to_base(runner, wa_store):
    m = Matcher(wa_store.d, seed=0)
    z = m.transform(wa_store.r_emb)
    base = wa_store.r_emb
    rel = np.linalg.norm(z - base) / np.linalg.norm(base)
    assert rel < 0.2


def test_transform_changes_after_training(trained, wa_store):
    m, *_ = trained
    z = m.transform(wa_store.r_emb)
    assert np.linalg.norm(z - wa_store.r_emb) > 0


def test_predict_from_params_matches_method(trained):
    """The numpy forward pass the scoring UDF runs equals the sigmoid of
    the autograd forward pass the matcher trains."""
    m, T, er, es, align, _ = trained
    p1 = 1.0 / (1.0 + np.exp(-m.forward(er, es, align).data))
    p2, hidden = predict_from_params(m.params(), er, es, align)
    np.testing.assert_allclose(p1, p2)
    assert hidden.shape == (len(T), HIDDEN)


def test_params_are_copies(trained):
    m, *_ = trained
    p = m.params()
    p["A"][0, 0] += 100
    assert m.A.data[0, 0] != p["A"][0, 0]


def test_score_pairs_matches_driver(spark, trained, wa, wa_store):
    m, T, er, es, align, _ = trained
    pairs_df = spark.createDataFrame(T[["rid_r", "rid_s"]])
    got = score_pairs(spark, pairs_df, wa_store, [m.params()]).toPandas()
    got = got.set_index(["rid_r", "rid_s"]).prob
    want = _proba(m, er, es, align)
    for j, (r, s) in enumerate(zip(T.rid_r, T.rid_s)):
        np.testing.assert_allclose(got.loc[(r, s)], want[j], atol=1e-9)


def test_score_pairs_multi_member_columns(spark, trained, wa, wa_store):
    m, T, *_ = trained
    m2 = Matcher(wa_store.d, seed=1)
    pairs_df = spark.createDataFrame(T[["rid_r", "rid_s"]])
    got = score_pairs(spark, pairs_df, wa_store, [m.params(), m2.params()]).toPandas()
    assert {"prob_0", "prob_1"} <= set(got.columns)
    assert not got.prob_0.equals(got.prob_1)


def test_score_pairs_average(spark, trained, wa, wa_store):
    m, T, er, es, align, _ = trained
    m2 = Matcher(wa_store.d, seed=1)
    pairs_df = spark.createDataFrame(T[["rid_r", "rid_s"]])
    got = (
        score_pairs(spark, pairs_df, wa_store, [m.params(), m2.params()], average=True)
        .toPandas()
        .set_index(["rid_r", "rid_s"])
        .prob
    )
    p1 = _proba(m, er, es, align)
    p2 = _proba(m2, er, es, align)
    for j, (r, s) in enumerate(zip(T.rid_r, T.rid_s)):
        np.testing.assert_allclose(got.loc[(r, s)], (p1[j] + p2[j]) / 2, atol=1e-9)


def test_score_pairs_is_lazy_and_keeps_input_columns(spark, trained, wa_store):
    """Building the scoring plan starts no Spark job, and the result is
    the input rows, extra ``dist`` column included, plus ``prob``."""
    m, T, *_ = trained
    pairs = T[["rid_r", "rid_s"]].assign(dist=np.linspace(0.0, 1.0, len(T)))
    pairs_df = spark.createDataFrame(pairs)
    sc = spark.sparkContext
    build, run = f"score-plan-{uuid.uuid4()}", f"score-run-{uuid.uuid4()}"
    sc.setJobGroup(build, "build the score_pairs plan")
    try:
        scored = score_pairs(spark, pairs_df, wa_store, [m.params()])
        sc.setJobGroup(run, "run the score_pairs plan")
        got = scored.toPandas()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    st = sc.statusTracker()
    deadline = time.monotonic() + 10
    while not st.getJobIdsForGroup(run) and time.monotonic() < deadline:
        time.sleep(0.05)  # the listener records jobs in order: build's are in by now
    assert st.getJobIdsForGroup(run)
    assert st.getJobIdsForGroup(build) == []
    assert list(got.columns) == ["rid_r", "rid_s", "dist", "prob"]
    key = ["rid_r", "rid_s", "dist"]
    pd.testing.assert_frame_equal(
        got[key].sort_values(key).reset_index(drop=True),
        pairs.sort_values(key).reset_index(drop=True),
    )


def test_matcher_separates_holdout(trained, wa, wa_store):
    """Quality bar: ranks unseen duplicates above unseen non-duplicates."""
    m, T, *_ = trained
    used = set(zip(T.rid_r, T.rid_s))
    test = wa.test_pdf
    test = test[[(r, s) not in used for r, s in zip(test.rid_r, test.rid_s)]]
    er, es = wa_store.pair_embs(test)
    align = pair_align_features(wa_store, test)
    p = _proba(m, er, es, align)
    y = test.label.to_numpy()
    if y.sum() and (1 - y).sum():
        assert p[y == 1].mean() > p[y == 0].mean() + 0.15


def test_deterministic_training(runner, wa, wa_store):
    T = pd.concat(
        [wa.seed_pos_pdf.head(6).assign(label=1), wa.seed_neg_pdf.head(6).assign(label=0)],
        ignore_index=True,
    )
    er, es = wa_store.pair_embs(T)
    align = pair_align_features(wa_store, T)
    y = T.label.to_numpy().astype(float)
    m1 = Matcher(wa_store.d, seed=5)
    m2 = Matcher(wa_store.d, seed=5)
    m1.fit(er, es, align, y, epochs=5, seed=9)
    m2.fit(er, es, align, y, epochs=5, seed=9)
    np.testing.assert_array_equal(m1.A.data, m2.A.data)
    np.testing.assert_array_equal(m1.W1.data, m2.W1.data)
