"""Example selection strategies (§2.3, §4.7)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.selectors import (
    SELECTORS,
    entropy,
    select,
    select_badge,
    select_greedy,
    select_partition2,
    select_partition4,
    select_random,
    select_uncertainty,
)


def _cand(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "rid_r": [f"r{i}" for i in range(n)],
            "rid_s": [f"s{i}" for i in range(n)],
            "dist": rng.random(n),
            "prob": rng.random(n),
        }
    )


def test_entropy_shape_and_peak():
    p = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    h = entropy(p)
    assert np.isfinite(h).all()
    assert h.argmax() == 2
    np.testing.assert_allclose(h[0], h[4], atol=1e-9)


def test_uncertainty_picks_mid_probabilities(rng):
    cand = _cand()
    out = select_uncertainty(cand, 10, rng)
    chosen = cand.set_index("rid_r").loc[out.rid_r].prob
    rest = cand[~cand.rid_r.isin(out.rid_r)].prob
    assert np.abs(chosen - 0.5).max() <= np.abs(rest - 0.5).min() + 1e-12


def test_greedy_picks_smallest_distance(rng):
    cand = _cand()
    out = select_greedy(cand, 10, rng)
    chosen = cand.set_index("rid_r").loc[out.rid_r].dist
    assert chosen.max() <= cand[~cand.rid_r.isin(out.rid_r)].dist.min() + 1e-12


def test_random_is_seeded_and_uniform():
    cand = _cand()
    a = select_random(cand, 10, np.random.default_rng(1))
    b = select_random(cand, 10, np.random.default_rng(1))
    pd.testing.assert_frame_equal(a, b)
    c = select_random(cand, 10, np.random.default_rng(2))
    assert not a.equals(c)


def test_partition2_queries_low_confidence_both_sides(rng):
    cand = _cand(200, 3)
    out = select_partition2(cand, 20, rng)
    assert len(out) == 20
    merged = out.merge(cand, on=["rid_r", "rid_s"])
    pos = merged[merged.prob > 0.5]
    neg = merged[merged.prob <= 0.5]
    assert len(pos) > 0 and len(neg) > 0
    # low-confidence: chosen positives are the least confident positives
    all_pos = cand[cand.prob > 0.5]
    assert pos.prob.max() <= all_pos.prob.quantile(0.6) + 0.2


def test_partition4_includes_high_confidence(rng):
    cand = _cand(200, 4)
    out = select_partition4(cand, 20, rng)
    merged = out.merge(cand, on=["rid_r", "rid_s"])
    h = entropy(merged.prob.to_numpy())
    # includes both low- and high-entropy picks
    assert h.min() < 0.2 and h.max() > 0.6
    assert len(out) == 20


def test_partition_handles_one_sided_predictions(rng):
    cand = _cand(50, 5)
    cand["prob"] = 0.9  # all predicted positive
    out2 = select_partition2(cand, 10, rng)
    out4 = select_partition4(cand, 10, rng)
    assert len(out2) == 10 and len(out4) == 10


@pytest.mark.parametrize("name", ["uncertainty", "random", "greedy", "partition2", "partition4"])
def test_budget_respected_and_unique(name, rng):
    cand = _cand(60, 6)
    out = select(name, cand, 25, rng)
    assert len(out) == 25
    assert not out.duplicated().any()


@pytest.mark.parametrize("name", ["uncertainty", "random"])
def test_budget_capped_at_cand_size(name, rng):
    cand = _cand(5, 7)
    out = select(name, cand, 100, rng)
    assert len(out) == 5


def test_empty_cand(rng):
    cand = _cand(0)
    out = select("uncertainty", cand, 5, rng)
    assert len(out) == 0


def test_unknown_selector_raises(rng):
    with pytest.raises(ValueError):
        select("nope", _cand(10), 2, rng)


def test_selector_names_complete():
    assert set(SELECTORS) == {
        "uncertainty", "random", "greedy", "partition2", "partition4", "qbc", "badge",
    }


# -- BADGE ------------------------------------------------------------------

def test_badge_selects_diverse_gradients(runner, wa, wa_store, rng):
    from repro.core.matcher import Matcher

    m = Matcher(wa_store.d, seed=0)
    cand = pd.concat(
        [wa.dups_pdf.head(15), wa.seed_neg_pdf.head(15)], ignore_index=True
    )
    cand["dist"] = 0.5
    cand["prob"] = 0.5
    out = select_badge(cand, 8, rng, store=wa_store, matcher_params=m.params())
    assert len(out) == 8
    assert not out.duplicated().any()
    assert set(zip(out.rid_r, out.rid_s)) <= set(zip(cand.rid_r, cand.rid_s))


# -- QBC (distributed committee scoring) ------------------------------------

def test_qbc_end_to_end(spark, runner, wa, wa_store, rng):
    labeled = pd.concat(
        [wa.seed_pos_pdf.head(8).assign(label=1), wa.seed_neg_pdf.head(8).assign(label=0)],
        ignore_index=True,
    )
    cand = pd.concat([wa.dups_pdf.head(10), wa.seed_neg_pdf.iloc[8:18]], ignore_index=True)
    cand["dist"] = 0.4
    cand["prob"] = 0.5
    cand_df = spark.createDataFrame(cand[["rid_r", "rid_s"]])
    out = select(
        "qbc", cand, 6, rng,
        spark=spark, store=wa_store, cand_df=cand_df, labeled=labeled,
        matcher_params=None,
        matcher_epochs=4,
    )
    assert len(out) == 6
    assert set(zip(out.rid_r, out.rid_s)) <= set(zip(cand.rid_r, cand.rid_s))
