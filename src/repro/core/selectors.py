"""Example selection strategies (§2.3, §4.7).

Every selector consumes the scored candidate set (already excluding
test pairs and already-labeled pairs — Algorithm 1 / §4.2) and returns
B (rid_r, rid_s) pairs to send to the labeler.

- uncertainty  — entropy of P(dup) (Eq 4), the paper's default
- random       — uniform over CAND
- greedy       — most similar pairs (smallest index distance)
- partition2/4 — DTAL-style high-confidence sampling with partition;
                 Partition-2 queries p_lc ∪ n_lc, Partition-4 queries
                 all four quadrants (§4.7 adapts DTAL to pure AL)
- qbc          — soft disagreement H(mean_k P_k) over a bootstrap
                 committee of matchers, scored distributed (one prob
                 column per member from ``score_pairs``)
- badge        — k-means++ seeding over hallucinated output-layer
                 gradient embeddings (§2.3.4)
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.matcher import Matcher, pair_align_features, predict_from_params, score_pairs
from repro.index.kmeans import kmeans_pp_indices
from repro.spark import release

_EPS = 1e-12
QBC_COMMITTEE = 3  # bootstrap matchers in the QBC committee (3, as DIAL's N)


def entropy(p: np.ndarray) -> np.ndarray:
    """Binary entropy H(p) (Eq 4), safe at p∈{0,1}."""
    p = np.clip(p, _EPS, 1 - _EPS)
    return -p * np.log(p) - (1 - p) * np.log(1 - p)


def _take(cand: pd.DataFrame, idx) -> pd.DataFrame:
    return cand.iloc[idx][["rid_r", "rid_s"]].reset_index(drop=True)


def select_uncertainty(cand: pd.DataFrame, budget: int, rng, **_) -> pd.DataFrame:
    h = entropy(cand.prob.to_numpy())
    return _take(cand, np.argsort(-h, kind="stable")[:budget])


def select_random(cand: pd.DataFrame, budget: int, rng, **_) -> pd.DataFrame:
    idx = rng.permutation(len(cand))[:budget]
    return _take(cand, idx)


def select_greedy(cand: pd.DataFrame, budget: int, rng, **_) -> pd.DataFrame:
    """Most similar pairs: negative L2 distance as similarity (§4.7)."""
    return _take(cand, np.argsort(cand.dist.to_numpy(), kind="stable")[:budget])


def _partition_sets(cand: pd.DataFrame) -> dict[str, np.ndarray]:
    """Quadrants of DTAL's partition: indices sorted by confidence."""
    p = cand.prob.to_numpy()
    h = entropy(p)
    pos = np.where(p > 0.5)[0]
    neg = np.where(p <= 0.5)[0]
    return {
        # high-confidence = lowest entropy; low-confidence = highest
        "p_hc": pos[np.argsort(h[pos], kind="stable")],
        "p_lc": pos[np.argsort(-h[pos], kind="stable")],
        "n_hc": neg[np.argsort(h[neg], kind="stable")],
        "n_lc": neg[np.argsort(-h[neg], kind="stable")],
    }


def select_partition2(cand: pd.DataFrame, budget: int, rng, **_) -> pd.DataFrame:
    q = _partition_sets(cand)
    half = budget // 2
    idx = np.concatenate([q["p_lc"][:half], q["n_lc"][: budget - half]])
    # if one side is short, backfill from the other's low-confidence pool
    if len(idx) < budget:
        pool = np.concatenate([q["p_lc"][half:], q["n_lc"][budget - half :]])
        idx = np.concatenate([idx, pool[: budget - len(idx)]])
    return _take(cand, pd.unique(idx)[:budget])


def select_partition4(cand: pd.DataFrame, budget: int, rng, **_) -> pd.DataFrame:
    q = _partition_sets(cand)
    quarter = max(1, budget // 4)
    parts = [q["p_hc"][:quarter], q["p_lc"][:quarter], q["n_hc"][:quarter], q["n_lc"][:quarter]]
    idx = pd.unique(np.concatenate(parts))
    if len(idx) < budget:  # backfill with most uncertain remaining
        h = entropy(cand.prob.to_numpy())
        rest = np.argsort(-h, kind="stable")
        rest = rest[~np.isin(rest, idx)]
        idx = np.concatenate([idx, rest[: budget - len(idx)]])
    return _take(cand, idx[:budget])


def select_qbc(
    cand: pd.DataFrame,
    budget: int,
    rng,
    *,
    spark,
    store,
    cand_df,
    labeled: pd.DataFrame,
    matcher_epochs: int,
    **_,
) -> pd.DataFrame:
    """Bootstrap a committee of matchers (Mozafari et al., §2.3.1) and
    pick the pairs with the highest soft disagreement H(mean_k P_k).

    Committee scoring runs distributed: one prob column per member via
    ``score_pairs`` over the partitioned candidate set.
    """
    params_list = []
    n = len(labeled)
    er_all, es_all = store.pair_embs(labeled)
    align_all = pair_align_features(store, labeled)
    y_all = labeled.label.to_numpy()
    for m in range(QBC_COMMITTEE):
        boot = rng.integers(0, n, n)  # sample with replacement, same size (§2.3.1)
        mm = Matcher(store.d, seed=1000 + m)
        mm.fit(er_all[boot], es_all[boot], align_all[boot], y_all[boot], epochs=matcher_epochs)
        params_list.append(mm.params())
    scored_df = score_pairs(spark, cand_df.select("rid_r", "rid_s"), store, params_list)
    scored = scored_df.toPandas()
    release(scored_df)
    merged = cand.merge(scored, on=["rid_r", "rid_s"], how="inner")
    mean_p = merged[[f"prob_{i}" for i in range(QBC_COMMITTEE)]].mean(axis=1).to_numpy()
    h = entropy(mean_p)
    return _take(merged, np.argsort(-h, kind="stable")[:budget])


def select_badge(
    cand: pd.DataFrame, budget: int, rng, *, store, matcher_params: dict, **_
) -> pd.DataFrame:
    """BADGE: k-means++ seeding on output-layer gradient embeddings.

    For BCE, dL/dlogit at the hallucinated label ŷ=1[p>.5] is (p - ŷ);
    the output-layer gradient embedding is (p - ŷ)·[z1 ; 1] where z1 is
    the last hidden activation — computed with the matcher's exposed
    hidden states, then seeded with k-means++ (§2.3.4).
    """
    er, es = store.pair_embs(cand)
    align = pair_align_features(store, cand)
    p, z1 = predict_from_params(matcher_params, er, es, align)
    yhat = (p > 0.5).astype(float)
    g = (p - yhat)[:, None] * np.concatenate([z1, np.ones((len(p), 1))], axis=1)
    idx = kmeans_pp_indices(g, budget, rng)
    return _take(cand, idx)


SELECTORS = {
    "uncertainty": select_uncertainty,
    "random": select_random,
    "greedy": select_greedy,
    "partition2": select_partition2,
    "partition4": select_partition4,
    "qbc": select_qbc,
    "badge": select_badge,
}


def select(name: str, cand: pd.DataFrame, budget: int, rng, **ctx) -> pd.DataFrame:
    """Dispatch by strategy name; DIAL is agnostic to the choice (§4.7).
    ``ctx`` holds what QBC and BADGE need (``spark``, ``store``,
    ``cand_df``, ``labeled``, ``matcher_epochs``, ``matcher_params``);
    every selector takes it and ignores the rest."""
    if name not in SELECTORS:
        raise ValueError(f"unknown selector {name!r}")
    budget = min(budget, len(cand))
    if budget == 0:
        return cand.head(0)[["rid_r", "rid_s"]]
    return SELECTORS[name](cand, budget, rng, **ctx)
