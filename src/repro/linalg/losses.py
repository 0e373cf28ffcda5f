"""Loss functions used by DIAL's matcher and blocker.

- ``bce_with_logits``       — Eq 6, the matcher's classification loss.
- ``contrastive_loss``      — Eq 8, the blocker's default objective.
- ``triplet_loss``          — §4.6.2 Triplet ablation objective.
- ``distance_classification_loss`` — §4.6.2 Classification ablation:
  cross-entropy on a logistic score of the (negative squared) embedding
  distance, i.e. SentenceBERT-style separation of dups from non-dups.
"""
from __future__ import annotations

import numpy as np

from repro.linalg.autograd import Tensor, const


def bce_with_logits(
    logits: Tensor, labels: np.ndarray, weights: np.ndarray | None = None
) -> Tensor:
    """(Weighted) mean binary cross-entropy, numerically stable.

    log(1+exp(-z)) for positives, log(1+exp(z)) for negatives — exactly
    the two sums of Eq 6. ``weights`` rescales per-example losses (the
    matcher uses class-balancing weights: AL floods T with near-boundary
    negatives, and an unweighted loss at our tiny model scale collapses
    to the majority class between rounds).
    """
    y = const(np.asarray(labels, dtype=np.float64))
    # stable: max(z,0) - z*y + log(1+exp(-|z|))
    z = logits
    per = z.relu() - z * y + ((z.abs() * -1.0).exp() + 1.0).log()
    if weights is not None:
        w = np.asarray(weights, dtype=np.float64)
        return (per * const(w)).sum() / float(w.sum())
    return per.mean()


def class_balance_weights(labels: np.ndarray) -> np.ndarray:
    """Per-example class-rebalancing weights that give both classes equal
    total mass. Full rebalancing keeps the matcher from collapsing to the
    majority class as AL floods T with near-boundary negatives (at our
    model scale this collapse is what an unweighted Eq 6 does between
    rounds).
    """
    y = np.asarray(labels, dtype=np.float64)
    n, n_pos = len(y), y.sum()
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        return np.ones(n)
    return np.where(y == 1, n / (2 * n_pos), n / (2 * n_neg))


def pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """All-pairs squared L2 distances: out[i,j] = ||a_i - b_j||^2."""
    a2 = a.pow(2).sum(axis=1, keepdims=True)  # (n,1)
    b2 = b.pow(2).sum(axis=1, keepdims=True).T  # (1,m)
    d = a2 + b2 - (a @ b.T) * 2.0
    return d.relu()  # clamp tiny negatives from fp error


def rowwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """Row-aligned squared L2 distances: out[i] = ||a_i - b_i||^2."""
    return (a - b).pow(2).sum(axis=1)


def contrastive_loss(
    er_p: Tensor,
    es_p: Tensor,
    er_n: Tensor,
    es_n: Tensor,
    tau: float = 1.0,
) -> Tensor:
    """Eq 8: -log s(r_p,s_p) / [s(r_p,s_p) + sum_i s(r_i,s_p)+s(r_p,s_i)+s(r_i,s_i)].

    ``er_p, es_p``: embeddings of the b duplicate pairs (b x d).
    ``er_n, es_n``: embeddings of the b random records from R and S
    (already shuffled/paired by the caller per §3.2.2).
    Similarity s(u,v) = exp(-||u-v||^2 / tau); implemented in log-space
    with logsumexp for stability. Returns the mean over positives.
    """
    sim_pos = rowwise_sqdist(er_p, es_p) * (-1.0 / tau)  # (b,)
    sim_rn_sp = pairwise_sqdist(er_n, es_p) * (-1.0 / tau)  # (b_n, b) [i,j]=s(r_i,s_p_j)
    sim_rp_sn = pairwise_sqdist(er_p, es_n) * (-1.0 / tau)  # (b, b_n) [j,i]=s(r_p_j,s_i)
    sim_rn_sn = rowwise_sqdist(er_n, es_n) * (-1.0 / tau)  # (b_n,)

    b = er_p.data.shape[0]
    bn = er_n.data.shape[0]
    # Per positive j, the denominator terms: own positive, column j of
    # rn_sp, row j of rp_sn, and all the (r_i, s_i) random pairs.
    parts = [
        sim_pos.reshape(b, 1),
        sim_rn_sp.T,  # (b, b_n)
        sim_rp_sn,  # (b, b_n)
        # broadcast the shared random-pair terms to every positive row
        sim_rn_sn.reshape(1, bn) + const(np.zeros((b, 1))),
    ]
    denom = Tensor.concat(parts, axis=1).logsumexp(axis=1)  # (b,)
    return (denom - sim_pos).mean()


def triplet_loss(
    er_p: Tensor,
    es_p: Tensor,
    er_n: Tensor,
    es_n: Tensor,
) -> Tensor:
    """§4.6.2 Triplet objective with euclidean distance and margin 1.

    Both records of each duplicate pair serve as anchors; negatives are
    the row-aligned random records (no hard-negative mining).
    """
    eps = 1e-12
    d_pos = (rowwise_sqdist(er_p, es_p) + eps).sqrt()
    d_r = (rowwise_sqdist(er_p, es_n) + eps).sqrt()  # anchor r_p vs random s
    d_s = (rowwise_sqdist(es_p, er_n) + eps).sqrt()  # anchor s_p vs random r
    return ((d_pos - d_r + 1.0).relu() + (d_pos - d_s + 1.0).relu()).mean()


def distance_classification_loss(
    er_p: Tensor,
    es_p: Tensor,
    er_n: Tensor,
    es_n: Tensor,
    scale: Tensor,
    bias: Tensor,
    tau: float = 1.0,
) -> Tensor:
    """§4.6.2 Classification objective: BCE on a logistic distance score.

    logit(r,s) = -scale * ||E(r)-E(s)||^2 / tau + bias, positives are the
    duplicate pairs, negatives the row-aligned random pairs. ``scale``
    and ``bias`` are trainable scalars owned by the committee member.
    """
    d_pos = rowwise_sqdist(er_p, es_p) * (1.0 / tau)
    d_neg = rowwise_sqdist(er_n, es_n) * (1.0 / tau)
    logits = Tensor.concat(
        [d_pos * -1.0 * scale + bias, d_neg * -1.0 * scale + bias], axis=0
    )
    labels = np.concatenate(
        [np.ones(d_pos.data.shape[0]), np.zeros(d_neg.data.shape[0])]
    )
    return bce_with_logits(logits, labels)
