"""Algorithm 1: the integrated active-learning loop.

``run_al(spark, ds, cfg)`` runs the full loop and returns per-round
metrics plus per-operation timings. The ``blocking`` field of the
config selects between DIAL's learned committee blocker and the
baseline blocking strategies of §4.3, which share everything else
(matcher, selector, labeler, evaluation) exactly as in the paper:

- ``dial``          — IBC committee over matcher-adapted embeddings
- ``paired_fixed``  — index the frozen pretrained embeddings (computed once)
- ``paired_adapt``  — index the matcher-adapted embeddings of this round
- ``sentencebert``  — siamese head fine-tuned on T with classification
                      loss (DITTO's "advanced blocking", learned each round)
- ``rules``         — fixed hand-crafted-rules candidate set

Each round: train matcher on T (Eq 6) → build blocker → retrieve CAND
(distributed k-NN) → score CAND once (distributed paired-mode UDF) →
evaluate on the driver (D_test predictions come from CAND's scores) →
select B pairs (excluding D_test and already-labeled) → oracle labels →
augment T. No warm start between rounds (§4.2).

One driver, ``_run_rounds``, owns that round skeleton: the seed set,
evaluation, the D_test/labeled exclusion, labeling, the growth of T,
the result bookkeeping and the lifetime of each round's scored CAND.
``run_al`` supplies DIAL's training, blocking, scoring and selection;
``repro.core.baselines.run_rf_qbc`` supplies a random forest's.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.blocker import Blocker, member_embed
from repro.core.encoders import EmbeddingStore
from repro.core.evaluate import all_pairs_prf, blocker_recall, test_prf
from repro.core.ibc import CAND_SCHEMA, cand_size_for, knn_k_for, l2_normalize, retrieve_cand
from repro.core.labeler import label_pairs
from repro.core.matcher import Matcher, pair_align_features, score_pairs
from repro.core.selectors import select
from repro.linalg.autograd import Tensor, const, param
from repro.linalg.losses import bce_with_logits
from repro.linalg.optim import fit_minibatches
from repro.spark import release

BLOCKING_MODES = ("dial", "paired_fixed", "paired_adapt", "sentencebert", "rules")


@dataclass
class ALConfig:
    """Knobs of §4.2, at reproduction scale (paper values in comments)."""

    d: int = 192  # TPLM hidden size (768)
    rounds: int = 3  # AL rounds (10)
    budget: int = 32  # labels per round B (128)
    seed_pos: int = 24  # |T_p| seed (64)
    seed_neg: int = 24  # |T_n| seed (64)
    committee_size: int = 3  # N (3)
    cand_size: str | int = "default"  # |CAND| rule (§4.2 / Table 6)
    selector: str = "uncertainty"
    blocker_objective: str = "contrastive"  # Table 5 ablation knob
    blocker_negatives: str = "random"  # Table 4 ablation knob
    matcher_epochs: int = 20  # (20)
    blocker_epochs: int = 40  # (200; our rank-limited heads need fewer)
    # variance-reduction ensemble: K differently-seeded matchers trained
    # per round, probabilities averaged. The paper averages whole runs
    # over 3 random seed sets (§4.2); at our model scale per-round
    # averaging is the equivalent stabilizer (driver-side, ~0.2s each).
    matcher_ensemble: int = 3
    blocking: str = "dial"
    seed: int = 0


@dataclass
class ALResult:
    """History of per-round metrics and timings + final summary."""

    config: dict
    dataset: str
    history: list[dict] = field(default_factory=list)
    final: dict = field(default_factory=dict)


class _SBertBlocker:
    """SentenceBERT-style blocker (§4.3): siamese encoder fine-tuned on
    the labeled pairs T with a classification loss over
    [u, v, |u-v|] — including T's hard negatives, which is exactly why
    its blocking recall disappoints (§4.4)."""

    def __init__(self, d: int, seed: int = 0):
        rng = np.random.default_rng(seed * 17 + 3)
        self.d = d
        self.B = param(np.eye(d) + (0.1 / np.sqrt(d)) * rng.standard_normal((d, d)))
        self.w = param(rng.standard_normal((3 * d, 1)) * np.sqrt(1.0 / (3 * d)))
        self.b = param(np.zeros(1))

    def fit(self, er, es, labels, *, epochs, seed):
        def batch_loss(idx):
            u = const(er[idx]) @ self.B
            v = const(es[idx]) @ self.B
            f = Tensor.concat([u, v, (u - v).abs()], axis=1)
            return bce_with_logits((f @ self.w + self.b).reshape(-1), labels[idx])

        fit_minibatches(
            [([self.B], 3e-4), ([self.w, self.b], 3e-3)],
            len(labels),
            epochs,
            np.random.default_rng(seed),
            batch_loss,
        )

    def transform(self, emb: np.ndarray) -> np.ndarray:
        return emb @ self.B.data


def _seed_labeled(ds, cfg: ALConfig, rng) -> pd.DataFrame:
    """Seed T: 64+64 (scaled) pairs from the training split (§4.2)."""
    pos_pool = ds.seed_pos_pdf
    neg_pool = ds.seed_neg_pdf
    n_pos = min(cfg.seed_pos, len(pos_pool))
    pos = pos_pool.iloc[rng.permutation(len(pos_pool))[:n_pos]].assign(label=1)
    if len(neg_pool) == 0:
        # fall back to random non-duplicate pairs
        dup_set = ds.dup_set
        r_ids, s_ids = set(ds.r_pdf.rid), set(ds.s_pdf.rid)
        n_dups = sum(1 for r, s in dup_set if r in r_ids and s in s_ids)
        if cfg.seed_neg > 0 and n_dups >= len(r_ids) * len(s_ids):
            raise ValueError(
                "cannot seed T_n: no seed negatives are given and every "
                f"(r, s) pair of R x S ({len(r_ids)} x {len(s_ids)}) is a duplicate"
            )
        rows = []
        while len(rows) < cfg.seed_neg:
            r = ds.r_pdf.rid.iloc[int(rng.integers(len(ds.r_pdf)))]
            s = ds.s_pdf.rid.iloc[int(rng.integers(len(ds.s_pdf)))]
            if (r, s) not in dup_set:
                rows.append((r, s))
        neg = pd.DataFrame(rows, columns=["rid_r", "rid_s"]).assign(label=0)
    else:
        n_neg = min(cfg.seed_neg, len(neg_pool))
        neg = neg_pool.iloc[rng.permutation(len(neg_pool))[:n_neg]].assign(label=0)
    return pd.concat(
        [pos[["rid_r", "rid_s", "label"]], neg[["rid_r", "rid_s", "label"]]],
        ignore_index=True,
    )


def _resolve_cand_size(cfg: ALConfig, ds) -> int:
    n_s = len(ds.s_pdf)
    if isinstance(cfg.cand_size, int):
        return cfg.cand_size
    if cfg.cand_size == "small":  # Table 6: 3·|DUPS|
        return 3 * len(ds.dups_pdf)
    return cand_size_for(ds.name, n_s, cfg.cand_size)


def _train_matcher(
    store, T: pd.DataFrame, cfg: ALConfig, rnd: int
) -> tuple[list[Matcher], list[list[float]]]:
    """Fresh (no warm start, §4.2) ensemble of matchers for this round,
    and each member's per-epoch loss trace."""
    er, es = store.pair_embs(T)
    align = pair_align_features(store, T)
    y = T.label.to_numpy().astype(float)
    matchers, traces = [], []
    for i in range(max(1, cfg.matcher_ensemble)):
        m = Matcher(cfg.d, seed=cfg.seed + 37 * i)
        traces.append(m.fit(
            er, es, align, y, epochs=cfg.matcher_epochs, seed=cfg.seed * 100 + rnd + 7 * i
        ))
        matchers.append(m)
    return matchers, traces


def _member_embeddings(
    store, matcher, T, cfg: ALConfig, rnd: int
) -> tuple[list[np.ndarray], list[np.ndarray], list[float] | None]:
    """Per-member embedding matrices of R and S for this round's blocking
    mode (a single-member list for the non-committee baselines), and the
    committee's member-0 loss trace (None outside ``dial`` mode)."""
    mode = cfg.blocking
    if mode == "paired_fixed":
        return [l2_normalize(store.r_emb)], [l2_normalize(store.s_emb)], None
    z_r = matcher.transform(store.r_emb)
    z_s = matcher.transform(store.s_emb)
    if mode == "paired_adapt":
        return [l2_normalize(z_r)], [l2_normalize(z_s)], None
    if mode == "sentencebert":
        sb = _SBertBlocker(cfg.d, seed=cfg.seed)
        er, es = store.pair_embs(T)
        sb.fit(
            er, es, T.label.to_numpy().astype(float),
            epochs=cfg.matcher_epochs, seed=cfg.seed * 100 + rnd,
        )
        return (
            [l2_normalize(sb.transform(store.r_emb))],
            [l2_normalize(sb.transform(store.s_emb))],
            None,
        )
    # mode == "dial": committee over frozen adapted embeddings (Eq 7/8)
    blocker = Blocker(cfg.d, n_members=cfg.committee_size, seed=cfg.seed * 100 + rnd)
    Tn = T[T.label == 0]
    pos_pairs = tuple(map(matcher.transform, store.pair_embs(T[T.label == 1])))
    neg_pairs = None
    if cfg.blocker_negatives == "labeled" and len(Tn):
        neg_pairs = tuple(map(matcher.transform, store.pair_embs(Tn)))
    trace = blocker.fit(
        pos_pairs, z_r, z_s,
        neg_pairs=neg_pairs,
        objective=cfg.blocker_objective,
        negatives=cfg.blocker_negatives,
        epochs=cfg.blocker_epochs,
        seed=cfg.seed * 100 + rnd,
    )
    members = blocker.member_params()
    return (
        [member_embed(p, z_r) for p in members],
        [member_embed(p, z_s) for p in members],
        trace,
    )


def _run_rounds(
    ds,
    cfg: ALConfig,
    config: dict,
    *,
    train,
    score,
    pick,
    block=None,
    cand: DataFrame | None = None,
) -> ALResult:
    """Algorithm 1's round skeleton: seed T, then per round train, block,
    score CAND, evaluate, select B pairs outside D_test and T, label
    them and grow T. The loops differ only in these hooks:

    - ``train(rnd, T, times) -> model`` fits on T and records its own
      ``times`` entries.
    - ``block(model) -> DataFrame | None`` returns this round's CAND,
      or None to keep the previous one (timed as ``index_retrieval``).
      Without ``block``, ``cand`` is the CAND of every round.
    - ``score(cand, model) -> DataFrame`` scores CAND (``prob``), once
      per round. The one collect of its result is the frame to select
      from, and its row order breaks the selector's ties. D_test is not
      scored on its own.
    - ``pick(selectable, T, cand, model, rng) -> pd.DataFrame`` chooses
      the pairs to label.

    Evaluation counts on the driver against ``ds.dups_pdf`` and
    ``ds.test_pdf``: test P/R/F1 from the collected scores, recall and
    all-pairs P/R/F1 from one collect each of the cached scored CAND,
    which holds exactly CAND's pairs (the traced benchmark hooks both
    and needs that Spark frame). Each history entry also records
    ``batch_pos_rate`` (positives over the labeled batch's size, 0.0 for
    an empty batch) and ``cand_overlap`` (the percentage of CAND's pairs
    that the previous round's CAND held; None in round 0 or for an
    empty CAND).

    ``config`` is recorded as the result's config. Every CAND is a
    driver-backed frame that holds no broadcast, so scoring it is one
    wave of tasks; each round's scored CAND is cached, collected once
    and released (unpersisted, its broadcast destroyed) at the end of
    the round.
    """
    result = ALResult(config=config, dataset=ds.name)
    rng = np.random.default_rng(cfg.seed * 7 + 13)
    test_keys = set(zip(ds.test_pdf.rid_r, ds.test_pdf.rid_s))
    prev_keys = None  # the previous round's CAND pairs
    T = _seed_labeled(ds, cfg, rng)
    for rnd in range(cfg.rounds):
        times: dict[str, float] = {}
        model = train(rnd, T, times)

        if block is not None:
            t0 = time.perf_counter()
            new = block(model)
            times["index_retrieval"] = 0.0
            if new is not None:
                cand = new
                times["index_retrieval"] = time.perf_counter() - t0

        # distributed scoring of CAND (the "matching" half of RT):
        # one pass, cached for evaluation and collected for selection
        t0 = time.perf_counter()
        scored = score(cand, model).cache()
        pdf = scored.toPandas()
        times["match_cand"] = time.perf_counter() - t0

        # evaluation (§4.1); D_test predictions come from CAND's scores
        t0 = time.perf_counter()
        cand_rec = blocker_recall(scored, ds.dups_pdf)
        ap = all_pairs_prf(scored, ds.dups_pdf)
        tp = test_prf(ds.test_pdf, pdf)
        times["evaluate"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        excluded = test_keys | set(zip(T.rid_r, T.rid_s))
        mask = np.array(
            [(r, s) not in excluded for r, s in zip(pdf.rid_r, pdf.rid_s)], dtype=bool
        )
        chosen = pick(pdf[mask].reset_index(drop=True), T, cand, model, rng)
        times["selection"] = time.perf_counter() - t0

        batch = label_pairs(chosen, ds.dup_set)
        T = pd.concat([T, batch], ignore_index=True).drop_duplicates(
            ["rid_r", "rid_s"], keep="first"
        )
        keys = set(zip(pdf.rid_r, pdf.rid_s))
        overlap = (
            100.0 * len(keys & prev_keys) / len(keys)
            if prev_keys is not None and keys else None
        )
        prev_keys = keys

        result.history.append(
            {
                "round": rnd,
                "n_labeled": int(len(T)),
                "cand_recall": cand_rec,
                "cand_size": int(len(pdf)),
                "cand_overlap": overlap,
                "batch_pos_rate": int(batch.label.sum()) / len(batch) if len(batch) else 0.0,
                "test": tp,
                "all_pairs": ap,
                "times": times,
            }
        )
        # RT of Table 2/10: blocking + matching time for the final verdict
        result.final = {
            "cand_recall": cand_rec,
            "test": tp,
            "all_pairs": ap,
            "rt_seconds": times.get("index_retrieval", 0.0) + times["match_cand"],
            "n_labeled": int(len(T)),
        }
        release(scored)
    return result


def run_al(
    spark: SparkSession,
    ds,
    cfg: ALConfig,
    *,
    store: EmbeddingStore | None = None,
    rules_cand: DataFrame | None = None,
) -> ALResult:
    """Run the AL loop; see module docstring. ``store`` and (for
    ``blocking='rules'``) ``rules_cand`` can be passed in to share work
    across the many configurations the tables sweep."""
    assert cfg.blocking in BLOCKING_MODES, cfg.blocking
    if store is None:
        store = EmbeddingStore(ds, cfg.d)
    if cfg.blocking == "rules":
        assert rules_cand is not None, "rules blocking needs a rules_cand DataFrame"
        rules = rules_cand.select("rid_r", "rid_s", "dist").toPandas()  # greedy reads dist
        rules_cand = spark.createDataFrame(rules, CAND_SCHEMA)  # laid out once per run
    else:
        rules_cand = None
    cand_size = _resolve_cand_size(cfg, ds)
    k = knn_k_for(ds.name)

    losses = []  # per round: the loss traces, added to its history entry

    def train(rnd, T, times):
        t0 = time.perf_counter()
        matchers, matcher_traces = _train_matcher(store, T, cfg, rnd)
        times["train_matcher"] = time.perf_counter() - t0
        # the Rules CAND is given and the paired_fixed CAND never changes
        members, committee_trace = None, None
        t0 = time.perf_counter()
        if cfg.blocking != "rules" and (rnd == 0 or cfg.blocking != "paired_fixed"):
            *members, committee_trace = _member_embeddings(store, matchers[0], T, cfg, rnd)
        times["train_committee"] = time.perf_counter() - t0 if members is not None else 0.0
        losses.append({"matcher": matcher_traces, "committee": committee_trace})
        return [m.params() for m in matchers], members

    def block(model):
        members = model[1]
        if members is None:
            return None
        return retrieve_cand(spark, store.r_rids, store.s_rids, *members, k, cand_size)

    def pick(selectable, T, cand, model, rng):
        # in pair order, so that no pick follows CAND's row order, which
        # moves with float ties among distances and with the core count
        selectable = selectable.sort_values(["rid_r", "rid_s"], ignore_index=True)
        return select(
            cfg.selector, selectable, cfg.budget, rng,
            spark=spark, store=store, cand_df=cand,
            labeled=T, matcher_params=model[0][0],
            matcher_epochs=max(5, cfg.matcher_epochs // 2),
        )

    result = _run_rounds(
        ds, cfg, asdict(cfg),
        train=train,
        block=block,
        score=lambda cand, model: score_pairs(spark, cand, store, model[0], average=True),
        pick=pick,
        cand=rules_cand,
    )
    for h, loss in zip(result.history, losses):
        h["loss"] = loss
    return result
