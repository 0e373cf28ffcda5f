"""Experiment layer: Runner, table harnesses, report rendering."""
import json
import time
import uuid

from repro.exp import paper_numbers as P
from repro.exp.report import table_markdown
from repro.exp.runner import Runner
from repro.exp.tables import TABLES, table1


def test_runner_reuses_dataset_objects(runner):
    assert runner.dataset("walmart_amazon") is runner.dataset("walmart_amazon")
    assert runner.store("walmart_amazon") is runner.store("walmart_amazon")


def test_multilingual_store_is_encoded_once(spark, count_jobs):
    """The store that probes the §4.5 seed/test pairs is the Runner's
    store: asking for it encodes R and S no second time."""
    runner = Runner(spark, profile="test")
    runner.dataset("multilingual")
    assert count_jobs(lambda: runner.store("multilingual")) == 0


def test_multilingual_store_first_is_encoded_once(spark, monkeypatch):
    """Asked for before its dataset, the store is still the probe's."""
    from repro.exp import runner as runner_mod

    made = []

    class Counting(runner_mod.EmbeddingStore):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(runner_mod, "EmbeddingStore", Counting)
    runner = Runner(spark, profile="test")
    assert runner.store("multilingual") is made[0] and len(made) == 1


def _quality(res):
    return [{k: h[k] for k in ("n_labeled", "cand_recall", "cand_size", "test", "all_pairs")}
            for h in res["history"]]


def test_al_result_memoized_per_runner(spark, runner):
    """A Runner computes each configuration once and keeps the result in
    memory; a new Runner computes it again."""
    a = runner.al_result("walmart_amazon", blocking="dial")
    sc = spark.sparkContext
    hit, fresh = f"memo-hit-{uuid.uuid4()}", f"memo-fresh-{uuid.uuid4()}"
    sc.setJobGroup(hit, "repeat a memoized al_result")
    try:
        b = runner.al_result("walmart_amazon", blocking="dial")
        sc.setJobGroup(fresh, "the same al_result on a new Runner")
        c = Runner(spark, profile="test").al_result("walmart_amazon", blocking="dial")
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    st = sc.statusTracker()
    deadline = time.monotonic() + 10
    while not st.getJobIdsForGroup(fresh) and time.monotonic() < deadline:
        time.sleep(0.05)  # the listener records jobs in order: hit's are in by now
    assert b is a
    assert st.getJobIdsForGroup(hit) == []
    assert c is not a
    assert st.getJobIdsForGroup(fresh)
    assert _quality(c) == _quality(a)


def test_paper_numbers_complete():
    for method in P.TABLE2:
        assert set(P.TABLE2[method]) == set(P.DATASETS)
    for metric in P.TABLE4:
        for mode in P.TABLE4[metric]:
            assert set(P.TABLE4[metric][mode]) == set(P.DATASETS)
    assert set(P.TABLE3) == {"paired_fixed", "paired_adapt", "dial"}
    assert set(P.TABLE10) == {1, 3, 10}


def test_table_registry():
    assert set(TABLES) == set(range(1, 11))


def test_table1_rows(runner):
    res = table1(runner)
    assert len(res["rows"]) == 6
    for row in res["rows"]:
        assert row["|R|"] > 0 and row["paper_|R|"] > 0
        assert 0 < row["dup_ratio"] < 1


def test_table_markdown_renders(runner):
    md = table_markdown(table1(runner))
    assert md.startswith("### Table 1")
    assert md.count("|R|") >= 1


def test_table3_shape(runner):
    res = TABLES[3](runner)
    assert [r["method"] for r in res["rows"]] == ["paired_fixed", "paired_adapt", "dial"]
    for r in res["rows"]:
        assert 0 <= r["F1"] <= 100


def test_table9_timings_positive(runner):
    res = TABLES[9](runner)
    by_op = {}
    for r in res["rows"]:
        if r["dataset"] == "walmart_amazon":
            by_op[r["operation"]] = r["seconds"]
    assert set(by_op) == {"train_matcher", "train_committee", "index_retrieval", "selection"}
    assert all(v >= 0 for v in by_op.values())


def test_table6_medium_is_default_for_non_abt(monkeypatch):
    from repro.exp import tables

    calls = {}

    def dial_metrics(runner, d, **overrides):
        calls.setdefault(d, []).append(overrides)
        return {"cand_recall": 1.0, "all_pairs_f1": 2.0}

    monkeypatch.setattr(tables, "_dial_metrics", dial_metrics)
    tables.table6(None)
    # small, medium, large in turn; the default size runs without override
    assert calls["walmart_amazon"] == [{"cand_size": "small"}, {}, {"cand_size": "large"}]
    assert calls["abt_buy"] == [{"cand_size": "small"}, {"cand_size": "medium"}, {}]


def test_results_json_serializable(runner):
    res = runner.al_result("walmart_amazon", blocking="dial")
    json.dumps(res)  # must not raise
