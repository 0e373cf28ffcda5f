"""Evaluation metrics (§4.1) vs DuckDB oracles."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.evaluate import _prf, all_pairs_prf, blocker_recall, predicted_prf
from repro.core.evaluate import test_prf as tprf  # alias: bare name would be collected


@pytest.fixture(scope="module")
def frames(spark):
    dups = pd.DataFrame({"rid_r": ["r0", "r1", "r2", "r3"], "rid_s": ["s0", "s1", "s2", "s3"]})
    cand = pd.DataFrame(
        {
            "rid_r": ["r0", "r1", "r2", "r9", "r8"],
            "rid_s": ["s0", "s1", "s9", "s9", "s8"],
            "dist": [0.1] * 5,
        }
    )
    scored = cand.assign(prob=[0.9, 0.4, 0.8, 0.95, 0.2])
    test = pd.DataFrame(
        {
            "rid_r": ["r0", "r1", "r9", "r3"],
            "rid_s": ["s0", "s1", "s9", "s3"],
            "label": [1, 1, 0, 1],
        }
    )
    return {
        "cand": spark.createDataFrame(cand),
        "scored": spark.createDataFrame(scored[["rid_r", "rid_s", "prob"]]),
        "dups_pdf": dups,
        "scored_pdf": scored,
        "test_pdf": test,
    }


def test_prf_helper():
    m = _prf(tp=3, n_pred=4, n_gold=6)
    assert m["precision"] == 75.0
    assert m["recall"] == 50.0
    assert abs(m["f1"] - 60.0) < 1e-9


def test_prf_zero_safe():
    m = _prf(0, 0, 0)
    assert m == {"precision": 0.0, "recall": 0.0, "f1": 0.0}


def test_blocker_recall(frames):
    # cand contains r0-s0, r1-s1 of the 4 gold dups
    assert blocker_recall(frames["cand"], frames["dups_pdf"]) == 50.0


def test_all_pairs_prf(frames):
    m = all_pairs_prf(frames["scored"], frames["dups_pdf"])
    # predicted dups: prob>0.5 -> (r0,s0), (r2,s9), (r9,s9); tp = 1
    assert abs(m["precision"] - 100 / 3) < 1e-9
    assert m["recall"] == 25.0


@pytest.fixture(scope="module")
def random_frames(spark):
    """Seeded random frames for the DuckDB oracles: a scored CAND of 300
    distinct pairs, 60 gold DUPS (30 of them in CAND) and 80 labeled
    test pairs (40 in CAND, 30 of them gold). 20 of those 40 test pairs
    get a probability of exactly 0.5, to pin the strict ``prob > 0.5``."""
    rng = np.random.default_rng(7)
    grid = [(f"r{i}", f"s{j}") for i in range(40) for j in range(40)]
    pairs = pd.DataFrame(
        [grid[i] for i in rng.permutation(len(grid))[:340]], columns=["rid_r", "rid_s"]
    )
    cand = pairs.iloc[:300].assign(dist=rng.random(300), prob=rng.random(300))
    cand.loc[rng.choice(np.arange(260, 300), 20, replace=False), "prob"] = 0.5
    dups = pairs.iloc[270:330].reset_index(drop=True)
    test = pairs.iloc[260:340].assign(label=rng.integers(0, 2, 80)).reset_index(drop=True)
    return {
        "cand": spark.createDataFrame(cand),
        "tables": {"cand": cand, "dups": dups, "test": test},
    }


def _duckdb(sql: str, tables: dict) -> tuple:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t)
        return con.execute(sql).fetchone()
    finally:
        con.close()


def _assert_prf_close(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for k in want:
        assert abs(got[k] - want[k]) <= 1e-9, (k, got[k], want[k])


def test_blocker_recall_oracle(random_frames):
    f = random_frames
    hit, n_gold = _duckdb(
        "SELECT (SELECT count(*) FROM dups JOIN cand USING (rid_r, rid_s)),"
        " (SELECT count(*) FROM dups)",
        f["tables"],
    )
    assert (hit, n_gold) == (30, 60)
    assert abs(blocker_recall(f["cand"], f["tables"]["dups"]) - 100.0 * hit / n_gold) <= 1e-9


_ALL_PAIRS_SQL = """
SELECT (SELECT count(*) FROM cand JOIN dups USING (rid_r, rid_s) WHERE prob {op} 0.5),
       (SELECT count(*) FROM cand WHERE prob {op} 0.5),
       (SELECT count(*) FROM dups)
"""

_TEST_SQL = """
SELECT sum(pred * label), sum(pred), sum(label) FROM (
    SELECT test.label, CASE WHEN cand.prob {op} 0.5 THEN 1 ELSE 0 END AS pred
    FROM test LEFT JOIN cand USING (rid_r, rid_s))
"""


def _prf_oracle(sql: str, f: dict) -> dict:
    """DuckDB P/R/F1 with ``prob > 0.5``; the frames are chosen so that
    ``>=`` gives other numbers, so a 0.5 probability is pinned non-dup."""
    want, loose = (
        _prf(*(int(x) for x in _duckdb(sql.format(op=op), f["tables"]))) for op in (">", ">=")
    )
    assert want != loose
    assert 0 < want["precision"] < 100 and 0 < want["recall"] < 100
    return want


def test_all_pairs_prf_oracle(random_frames):
    f = random_frames
    _assert_prf_close(
        all_pairs_prf(f["cand"], f["tables"]["dups"]), _prf_oracle(_ALL_PAIRS_SQL, f)
    )


def test_test_prf_oracle(random_frames):
    f = random_frames
    _assert_prf_close(tprf(f["tables"]["test"], f["tables"]["cand"]), _prf_oracle(_TEST_SQL, f))


def test_test_prf(frames):
    m = tprf(frames["test_pdf"], frames["scored_pdf"])
    # test pairs: (r0,s0) in cand prob .9 -> pred 1 (tp)
    #             (r1,s1) in cand prob .4 -> pred 0
    #             (r9,s9) in cand prob .95 -> pred 1 (fp)
    #             (r3,s3) not in cand -> pred 0 (fn)
    assert m["precision"] == 50.0
    assert abs(m["recall"] - 100 / 3) < 1e-9


def test_test_prf_pair_not_in_cand_is_negative(frames):
    empty_scored_cand = pd.DataFrame(
        {"rid_r": [], "rid_s": [], "dist": [], "prob": []}
    ).astype({"rid_r": str, "rid_s": str})
    m = tprf(frames["test_pdf"], empty_scored_cand)
    assert m["recall"] == 0.0 and m["precision"] == 0.0


def test_blocker_recall_empty_gold(frames):
    empty = pd.DataFrame({"rid_r": [], "rid_s": []}, dtype=str)
    assert blocker_recall(frames["cand"], empty) == 0.0


def test_spark_jobs_per_metric(spark, frames, count_jobs):
    """``blocker_recall`` and ``all_pairs_prf`` collect once each; the
    metrics over driver frames run no Spark job."""
    f = frames
    assert count_jobs(lambda: blocker_recall(f["cand"], f["dups_pdf"])) == 1
    assert count_jobs(lambda: all_pairs_prf(f["scored"], f["dups_pdf"])) == 1
    assert count_jobs(lambda: tprf(f["test_pdf"], f["scored_pdf"])) == 0
    assert count_jobs(lambda: predicted_prf(f["scored_pdf"], f["dups_pdf"])) == 0


def test_labeler(frames):
    from repro.core.labeler import label_pairs

    pairs = pd.DataFrame({"rid_r": ["r0", "r9"], "rid_s": ["s0", "s9"]})
    out = label_pairs(pairs, {("r0", "s0")})
    assert out.label.tolist() == [1, 0]
