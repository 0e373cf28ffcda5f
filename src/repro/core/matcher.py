"""The DIAL matcher: paired-mode classifier (Eq 5, trained with Eq 6).

Architecture (the TPLM-substitute version of §3.1):

- backbone ``A`` (d x d, initialized to identity): the trainable part of
  the "transformer parameters Θ". ``E_adapt(x) = E(x) @ A`` is the
  matcher-fine-tuned single-mode embedding used by PairedAdapt and as
  the (frozen) input to DIAL's blocker committee.
- paired features ``[ |h_r-h_s| , h_r⊙h_s , alignment(4) ]`` where
  ``h = E_adapt``; the 4 token-alignment stats are the cross-attention
  stand-in (see ``repro.text.features.alignment_features``).
- head ``F_W``: linear → tanh → linear → scalar logit (exactly the
  paper's classification head shape), sigmoid → P(dup) (Eq 5).

Training runs on the driver (T is a few hundred pairs) with a per-call
``HashedLM``; *scoring* of the candidate set runs distributed in
``score_pairs`` (mapInPandas with the parameters broadcast, on each
worker's process-wide ``shared_lm``). D_test is never scored on its
own: its predictions are read from CAND's scores (§4.1).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

from repro.linalg.autograd import Tensor, const, param
from repro.linalg.losses import bce_with_logits, class_balance_weights
from repro.linalg.optim import fit_minibatches
from repro.spark import with_broadcasts
from repro.text.features import HashedLM, N_ALIGN_FEATURES, alignment_features_batch, shared_lm

N_ALIGN = N_ALIGN_FEATURES
HIDDEN = 64  # hidden width of the head F_W (TPLM-sized, 768, in the paper)
LR_BACKBONE = 1e-4  # AdamW learning rate of the backbone A (3e-5 for RoBERTa)
LR_HEAD = 3e-3  # ... and of the head F_W (1e-3)


class Matcher:
    """Paired-mode matcher with trainable backbone + MLP head."""

    def __init__(self, d: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.d = d
        n_feat = 2 * d + N_ALIGN
        # identity init: before any training, adapted embeddings ~= base
        # (noise scaled 1/sqrt(d) so the perturbation stays ~1% of ||E||)
        self.A = param(np.eye(d) + (0.1 / np.sqrt(d)) * rng.standard_normal((d, d)))
        self.W1 = param(rng.standard_normal((n_feat, HIDDEN)) * np.sqrt(2.0 / n_feat))
        self.b1 = param(np.zeros(HIDDEN))
        self.W2 = param(rng.standard_normal((HIDDEN, 1)) * np.sqrt(2.0 / HIDDEN))
        self.b2 = param(np.zeros(1))

    # -- forward -----------------------------------------------------------
    def _features(self, er: Tensor, es: Tensor, align: Tensor) -> Tensor:
        hr = er @ self.A
        hs = es @ self.A
        return Tensor.concat([(hr - hs).abs(), hr * hs, align], axis=1)

    def forward(self, er: np.ndarray, es: np.ndarray, align: np.ndarray) -> Tensor:
        f = self._features(const(er), const(es), const(align))
        z1 = (f @ self.W1 + self.b1).tanh()
        return (z1 @ self.W2 + self.b2).reshape(-1)

    # -- training (Eq 6) ---------------------------------------------------
    def fit(
        self,
        er: np.ndarray,
        es: np.ndarray,
        align: np.ndarray,
        labels: np.ndarray,
        *,
        epochs: int = 20,
        seed: int = 0,
    ) -> list[float]:
        """AdamW with per-group LRs and linear decay (§4.2). Returns the
        per-epoch mean loss trace (tests assert it decreases)."""
        weights = class_balance_weights(labels)

        def batch_loss(idx):
            logits = self.forward(er[idx], es[idx], align[idx])
            return bce_with_logits(logits, labels[idx], weights[idx])

        return fit_minibatches(
            [([self.A], LR_BACKBONE), ([self.W1, self.b1, self.W2, self.b2], LR_HEAD)],
            len(labels),
            epochs,
            np.random.default_rng(seed),
            batch_loss,
        )

    # -- inference (numpy only, broadcast-friendly) ------------------------
    def params(self) -> dict:
        return {
            "A": self.A.data.copy(),
            "W1": self.W1.data.copy(),
            "b1": self.b1.data.copy(),
            "W2": self.W2.data.copy(),
            "b2": self.b2.data.copy(),
            "d": self.d,
        }

    def transform(self, emb: np.ndarray) -> np.ndarray:
        """Matcher-adapted single-mode embeddings E(x) @ A (frozen view)."""
        return emb @ self.A.data


def predict_from_params(
    p: dict, er: np.ndarray, es: np.ndarray, align: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pure-numpy forward pass: returns (probs, hidden activations).

    The hidden activations are exposed for BADGE's output-layer gradient
    embeddings (§2.3.4).
    """
    hr = er @ p["A"]
    hs = es @ p["A"]
    f = np.concatenate([np.abs(hr - hs), hr * hs, align], axis=1)
    z1 = np.tanh(f @ p["W1"] + p["b1"])
    logit = (z1 @ p["W2"] + p["b2"]).ravel()
    return 1.0 / (1.0 + np.exp(-logit)), z1


def score_pairs(
    spark: SparkSession,
    pairs: DataFrame,
    store,
    params_list: list[dict],
    average: bool = False,
) -> DataFrame:
    """Distributed paired-mode scoring of (rid_r, rid_s) pairs.

    The result keeps every column of ``pairs`` (CAND's ``dist`` rides
    along) and appends one probability column per member of
    ``params_list`` (the QBC committee, or the variance-reduction
    ensemble): this is the committee-based scoring UDF over partitioned
    pair data. With ``average=True`` the member probabilities are
    averaged inside the UDF into a single ``prob`` column. The store and
    all member parameters ride one broadcast; each task takes its
    worker's warm ``shared_lm``. The plan is lazy (no Spark job
    runs here) and scores ``pairs`` as laid out: one task per partition,
    rows in the order of ``pairs``. The broadcast is tied to the result
    (``repro.spark.release``).
    """
    if average or len(params_list) == 1:
        out_cols = ["prob"]
    else:
        out_cols = [f"prob_{i}" for i in range(len(params_list))]
    schema = T.StructType(
        pairs.schema.fields + [T.StructField(c, T.DoubleType()) for c in out_cols]
    )
    b = spark.sparkContext.broadcast((store, params_list))

    def part(batches):
        store, params_list = b.value
        lm = shared_lm(store.d)
        for pdf in batches:
            if len(pdf) == 0:
                continue
            er, es = store.pair_embs(pdf)
            # pair_align_features's body: perfbench's tracer wraps that
            # function on the driver, and the UDF would pickle the wrapper
            align = alignment_features_batch(lm, *store.pair_texts(pdf))
            probs = [predict_from_params(p, er, es, align)[0] for p in params_list]
            if average:
                pdf["prob"] = np.mean(probs, axis=0)
            else:
                for c, p in zip(out_cols, probs):
                    pdf[c] = p
            yield pdf

    scored = pairs.mapInPandas(part, schema=schema)
    return with_broadcasts(scored, b)


def pair_align_features(store, pairs: pd.DataFrame, lm: HashedLM | None = None) -> np.ndarray:
    """Driver-side alignment features for a small pair frame (training)."""
    lm = lm or HashedLM(store.d)
    tr, ts = store.pair_texts(pairs)
    return alignment_features_batch(lm, tr, ts)
