"""Experiment layer: cache, Runner, table harnesses, report rendering."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exp import cache
from repro.exp import paper_numbers as P
from repro.exp.report import table_markdown
from repro.exp.runner import Runner
from repro.exp.tables import TABLES, format_table, table1


def test_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setattr(cache, "CACHE_DIR", tmp_path)
    key = cache.config_key({"a": 1, "b": [1, 2]})
    assert cache.load(key) is None
    cache.store(key, {"x": 1.5})
    assert cache.load(key) == {"x": 1.5}


def test_cache_dir_defaults_to_package_checkout():
    """Without ``REPRO_CACHE_DIR`` the cache sits in the checkout that
    holds the imported package, wherever that checkout lives."""
    src = Path(cache.__file__).resolve().parents[2]
    env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
    env["PYTHONPATH"] = str(src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import repro.exp.cache as c; print(c.__file__); print(c.CACHE_DIR)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert Path(out[0]).resolve() == Path(cache.__file__).resolve()
    assert Path(out[1]) == src.parent / ".bench_cache"


def test_cache_key_stable_and_order_insensitive(monkeypatch):
    k1 = cache.config_key({"a": 1, "b": 2})
    k2 = cache.config_key({"b": 2, "a": 1})
    k3 = cache.config_key({"a": 1, "b": 3})
    assert k1 == k2 != k3
    # the Runner's keys for one al, rf and jedai run are pinned: a changed
    # key would miss every result stored under the old one
    keys = []
    monkeypatch.setattr(cache, "load", lambda key: keys.append(key) or {})
    r = Runner(None, profile="test")
    r.al_result("walmart_amazon")
    r.rf_result("walmart_amazon")
    r.jedai_result("walmart_amazon", "schema_based")
    assert keys == ["705199123e7436cb5b8d", "0656ed4e7ebf79ca3942", "5b5f0e75edacef96dc1f"]


def test_runner_reuses_dataset_objects(runner):
    assert runner.dataset("walmart_amazon") is runner.dataset("walmart_amazon")
    assert runner.store("walmart_amazon") is runner.store("walmart_amazon")


def test_al_result_cached_on_disk(runner):
    a = runner.al_result("walmart_amazon", blocking="dial")
    b = runner.al_result("walmart_amazon", blocking="dial")
    assert a == b  # second call must come from cache (exact JSON match)


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


def test_format_table_renders(runner):
    out = format_table(table1(runner))
    assert "Table 1" in out and "walmart_amazon" in out


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


def test_table6_medium_is_default_for_non_abt(runner):
    from repro.exp.tables import _cand_size_override

    assert _cand_size_override("walmart_amazon", "medium") == {}
    assert _cand_size_override("abt_buy", "medium") == {"cand_size": "medium"}
    assert _cand_size_override("abt_buy", "large") == {}
    assert _cand_size_override("walmart_amazon", "large") == {"cand_size": "large"}


def test_results_json_serializable(runner):
    res = runner.al_result("walmart_amazon", blocking="dial")
    json.dumps(res)  # must not raise
