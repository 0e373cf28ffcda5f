"""Shared experiment runner.

Holds per-process state (datasets, embedding stores, Rules candidate
sets) and memoizes AL results on the Runner, keyed by the resolved
config, so the many table sweeps that share a configuration (the DIAL
default run feeds Tables 2/4/5/6/7/8/9) execute exactly once per pytest
session or ``make_experiments_md.py`` run. Nothing is kept on disk:
every result a Runner returns was computed by the code it imported.
"""
from __future__ import annotations

import json
from dataclasses import asdict, replace

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.baselines import run_rf_qbc
from repro.core.dial import ALConfig, run_al
from repro.core.encoders import EmbeddingStore
from repro.core.ibc import l2_normalize
from repro.data.er_synth import DATASET_SPECS, make_dataset
from repro.data.multilingual import make_multilingual
from repro.index.brute import knn_numpy
from repro.simjoin import jedai
from repro.simjoin.rules import rules_cand

# Per-dataset generation scale for benchmarks: chosen so each dataset
# keeps paper-like blocking difficulty (see DESIGN.md) while the full
# 10-table suite fits the container. Tests use `test_profile`.
BENCH_SCALES = {
    "walmart_amazon": 0.08,
    "amazon_google": 0.2,
    "dblp_acm": 0.15,
    "dblp_scholar": 0.05,
    "abt_buy": 0.3,
    "multilingual": 0.012,
}

BENCH_CFG = dict(rounds=3, budget=32, seed_pos=24, seed_neg=24)
TEST_CFG = dict(rounds=2, budget=12, seed_pos=12, seed_neg=12,
                matcher_epochs=20, blocker_epochs=20, d=96)
TEST_SCALES = {k: 0.02 for k in BENCH_SCALES} | {"multilingual": 0.004, "abt_buy": 0.06}


def prepare_multilingual(spark: SparkSession, ds, d: int, seed: int = 0) -> EmbeddingStore:
    """§4.5 seed/test construction for the multilingual dataset.

    Probe a pretrained index (k=3 NN of each s over the frozen base
    embeddings of R), split the retrieved pairs into duplicates and
    non-duplicates via gold, and sample the labeled seed set and the
    test set from disjoint halves. Mutates ``ds`` in place and returns
    the probe's ``EmbeddingStore``, the dataset's store at ``d``.
    """
    n_test = 200  # |D_test| (2000 in the paper, §4.5)
    store = EmbeddingStore(ds, d)
    idx, dist = knn_numpy(l2_normalize(store.s_emb), l2_normalize(store.r_emb), 3)
    pairs = []
    for si in range(len(store.s_rids)):
        for j in range(idx.shape[1]):
            pairs.append((store.r_rids[idx[si, j]], store.s_rids[si]))
    pdf = pd.DataFrame(pairs, columns=["rid_r", "rid_s"]).drop_duplicates()
    dup_set = ds.dup_set
    is_dup = np.array([(r, s) in dup_set for r, s in zip(pdf.rid_r, pdf.rid_s)])
    pos = pdf[is_dup].sample(frac=1.0, random_state=seed).reset_index(drop=True)
    neg = pdf[~is_dup].sample(frac=1.0, random_state=seed).reset_index(drop=True)
    n_tp = min(n_test // 4, max(2, len(pos) // 3))
    n_tn = min(n_test - n_test // 4, max(2, len(neg) // 3))
    test = pd.concat(
        [pos.iloc[:n_tp].assign(label=1), neg.iloc[:n_tn].assign(label=0)],
        ignore_index=True,
    ).sample(frac=1.0, random_state=seed).reset_index(drop=True)
    ds.test_pdf = test
    ds.test = spark.createDataFrame(test)
    ds.seed_pos_pdf = pos.iloc[n_tp:].reset_index(drop=True)
    ds.seed_neg_pdf = neg.iloc[n_tn:].reset_index(drop=True)
    return store


class Runner:
    """Caches datasets/stores/rules and AL results per (profile, seed)
    Spark session, for the lifetime of the Runner."""

    def __init__(self, spark: SparkSession, profile: str = "bench", seed: int = 0):
        assert profile in ("bench", "test")
        self.spark = spark
        self.profile = profile
        self.seed = seed
        self.scales = BENCH_SCALES if profile == "bench" else TEST_SCALES
        self.base_cfg = BENCH_CFG if profile == "bench" else TEST_CFG
        self._datasets: dict[str, object] = {}
        self._stores: dict[str, EmbeddingStore] = {}
        self._rules: dict[str, object] = {}
        self._results: dict[str, dict] = {}

    # -- shared artefacts --------------------------------------------------
    def dataset(self, name: str):
        if name not in self._datasets:
            if name == "multilingual":
                ds = make_multilingual(
                    self.spark, scale=self.scales[name], seed=self.seed
                )
                self._stores[name] = prepare_multilingual(
                    self.spark, ds, self.config(name).d, seed=self.seed
                )
            else:
                ds = make_dataset(
                    self.spark, name, scale=self.scales[name], seed=self.seed
                )
            self._datasets[name] = ds
        return self._datasets[name]

    def store(self, name: str) -> EmbeddingStore:
        ds = self.dataset(name)  # multilingual: also caches its probe's store
        if name not in self._stores:
            self._stores[name] = EmbeddingStore(ds, self.config(name).d)
        return self._stores[name]

    def rules(self, name: str):
        if name not in self._rules:
            rc = rules_cand(self.spark, self.dataset(name)).cache()
            rc.count()
            self._rules[name] = rc
        return self._rules[name]

    # -- AL runs -----------------------------------------------------------
    def config(self, name: str, **overrides) -> ALConfig:
        cfg = ALConfig(seed=self.seed, **self.base_cfg)
        return replace(cfg, **overrides)

    def _memo(self, key: dict, run) -> dict:
        """``run()``'s result, computed once per Runner for ``key``."""
        k = json.dumps(key, sort_keys=True)
        if k not in self._results:
            self._results[k] = run()
        return self._results[k]

    def _al_key(self, name: str, cfg: ALConfig, kind: str) -> dict:
        return {"kind": kind, "dataset": name, "scale": self.scales[name],
                "profile": self.profile, **asdict(cfg)}

    def al_result(self, name: str, **overrides) -> dict:
        """Run (or reuse) one AL configuration; returns a plain dict."""
        cfg = self.config(name, **overrides)
        return self._memo(
            self._al_key(name, cfg, "al"),
            lambda: asdict(run_al(
                self.spark,
                self.dataset(name),
                cfg,
                store=self.store(name),
                rules_cand=self.rules(name) if cfg.blocking == "rules" else None,
            )),
        )

    def rf_result(self, name: str) -> dict:
        cfg = self.config(name)
        return self._memo(
            self._al_key(name, cfg, "rf_qbc"),
            lambda: asdict(run_rf_qbc(
                self.spark, self.dataset(name), cfg, self.rules(name), store=self.store(name)
            )),
        )

    def jedai_result(self, name: str, workflow: str) -> dict:
        fn = jedai.schema_based if workflow == "schema_based" else jedai.schema_agnostic
        return self._memo(
            {"kind": f"jedai_{workflow}", "dataset": name,
             "scale": self.scales[name], "seed": self.seed},
            lambda: fn(self.spark, self.dataset(name)),
        )
