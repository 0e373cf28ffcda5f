"""Synthetic benchmark generators (Table 1 substrate)."""
import numpy as np
import pandas as pd
import pytest

from repro.data.er_synth import DATASET_SPECS, make_dataset
from repro.oracle import assert_equivalent

ALL = list(DATASET_SPECS)


@pytest.fixture(scope="module")
def datasets(spark):
    return {n: make_dataset(spark, n, scale=0.02, seed=0) for n in ALL}


@pytest.mark.parametrize("name", ALL)
def test_schema_columns(datasets, name):
    ds = datasets[name]
    for pdf in (ds.r_pdf, ds.s_pdf):
        assert list(pdf.columns) == ["rid", "text", "title", "grp", "key"]
    assert list(ds.dups_pdf.columns) == ["rid_r", "rid_s"]
    assert set(ds.test_pdf.columns) == {"rid_r", "rid_s", "label"}


@pytest.mark.parametrize("name", ALL)
def test_rids_unique_and_prefixed(datasets, name):
    ds = datasets[name]
    assert ds.r_pdf.rid.is_unique and ds.s_pdf.rid.is_unique
    assert ds.r_pdf.rid.str.startswith("r").all()
    assert ds.s_pdf.rid.str.startswith("s").all()


@pytest.mark.parametrize("name", ALL)
def test_dups_reference_existing_records(datasets, name):
    ds = datasets[name]
    assert set(ds.dups_pdf.rid_r) <= set(ds.r_pdf.rid)
    assert set(ds.dups_pdf.rid_s) <= set(ds.s_pdf.rid)


@pytest.mark.parametrize("name", ALL)
def test_scale_ratios_track_spec(datasets, name):
    """|S|, |DUPS| track the paper's sizes at the generation scale; |R|
    deliberately shrinks less (distractor density, DESIGN.md)."""
    ds, spec = datasets[name], DATASET_SPECS[name]
    assert abs(len(ds.s_pdf) - max(spec.n_dups * 0.02, spec.n_s * 0.02)) <= max(
        3, 0.1 * spec.n_s * 0.02
    )
    assert abs(len(ds.dups_pdf) - spec.n_dups * 0.02) <= max(2, 0.05 * spec.n_dups * 0.02)
    assert len(ds.r_pdf) >= spec.n_r * 0.02  # R scaled less aggressively


def test_scholar_is_many_to_many(datasets):
    ds = datasets["dblp_scholar"]
    counts = ds.dups_pdf.groupby("rid_r").size()
    assert counts.max() >= 2
    assert len(ds.dups_pdf) > ds.dups_pdf.rid_r.nunique()


@pytest.mark.parametrize("name", ["walmart_amazon", "amazon_google", "dblp_acm", "abt_buy"])
def test_one_to_one_datasets(datasets, name):
    ds = datasets[name]
    assert ds.dups_pdf.rid_r.is_unique and ds.dups_pdf.rid_s.is_unique


@pytest.mark.parametrize("name", ALL)
def test_test_split_disjoint_from_seed_pools(datasets, name):
    ds = datasets[name]
    test_keys = set(zip(ds.test_pdf.rid_r, ds.test_pdf.rid_s))
    seed_keys = set(zip(ds.seed_pos_pdf.rid_r, ds.seed_pos_pdf.rid_s)) | set(
        zip(ds.seed_neg_pdf.rid_r, ds.seed_neg_pdf.rid_s)
    )
    assert not (test_keys & seed_keys)


@pytest.mark.parametrize("name", ALL)
def test_test_labels_match_gold(datasets, name):
    ds = datasets[name]
    dup_set = ds.dup_set
    for row in ds.test_pdf.itertuples():
        assert row.label == int((row.rid_r, row.rid_s) in dup_set)


@pytest.mark.parametrize("name", ALL)
def test_seed_pools_label_correct(datasets, name):
    ds = datasets[name]
    dup_set = ds.dup_set
    assert all((r, s) in dup_set for r, s in zip(ds.seed_pos_pdf.rid_r, ds.seed_pos_pdf.rid_s))
    assert not any(
        (r, s) in dup_set for r, s in zip(ds.seed_neg_pdf.rid_r, ds.seed_neg_pdf.rid_s)
    )


def test_determinism(spark):
    a = make_dataset(spark, "amazon_google", scale=0.02, seed=3)
    b = make_dataset(spark, "amazon_google", scale=0.02, seed=3)
    pd.testing.assert_frame_equal(a.r_pdf, b.r_pdf)
    pd.testing.assert_frame_equal(a.s_pdf, b.s_pdf)
    pd.testing.assert_frame_equal(a.dups_pdf, b.dups_pdf)


def test_seed_changes_data(spark):
    a = make_dataset(spark, "amazon_google", scale=0.02, seed=3)
    b = make_dataset(spark, "amazon_google", scale=0.02, seed=4)
    assert not a.r_pdf.text.equals(b.r_pdf.text)


def test_s_side_dirtier_than_r(datasets):
    """Dirty rendering: duplicates' S text differs from their R text."""
    ds = datasets["dblp_scholar"]
    r_text = dict(zip(ds.r_pdf.rid, ds.r_pdf.text))
    s_text = dict(zip(ds.s_pdf.rid, ds.s_pdf.text))
    diffs = sum(
        r_text[r] != s_text[s] for r, s in zip(ds.dups_pdf.rid_r, ds.dups_pdf.rid_s)
    )
    assert diffs > 0.9 * len(ds.dups_pdf)


def test_dup_shares_vocabulary(datasets):
    """A duplicate pair still shares some tokens (it is the same entity)."""
    from repro.text.tokenize import tokenize

    ds = datasets["walmart_amazon"]
    r_text = dict(zip(ds.r_pdf.rid, ds.r_pdf.text))
    s_text = dict(zip(ds.s_pdf.rid, ds.s_pdf.text))
    share = [
        len(set(tokenize(r_text[r])) & set(tokenize(s_text[s])))
        for r, s in zip(ds.dups_pdf.rid_r, ds.dups_pdf.rid_s)
    ]
    assert np.mean(share) >= 2


def test_stats_oracle(spark, datasets):
    """The Table-1 stats row agrees with a DuckDB aggregation."""
    ds = datasets["walmart_amazon"]
    stats = ds.stats()
    got = spark.createDataFrame(
        pd.DataFrame(
            [[stats["|R|"], stats["|S|"], stats["|DUPS|"]]],
            columns=["n_r", "n_s", "n_dups"],
        )
    )
    assert_equivalent(
        got,
        """
        SELECT (SELECT count(*) FROM r) AS n_r,
               (SELECT count(*) FROM s) AS n_s,
               (SELECT count(*) FROM dups) AS n_dups
        """,
        r=ds.r_pdf,
        s=ds.s_pdf,
        dups=ds.dups_pdf,
    )


def test_spark_and_pandas_views_agree(spark, datasets):
    ds = datasets["abt_buy"]
    assert ds.R.count() == len(ds.r_pdf)
    assert ds.S.count() == len(ds.s_pdf)
