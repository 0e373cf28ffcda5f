"""DIAL's blocker: the Index-By-Committee embedding heads (§3.2).

Each committee member k owns a fixed random 0/1 mask M_k (keep prob p,
random-forest-style feature subsampling) and a learned affine map U_k
with tanh output (Eq 7):

    E_k(x) = tanh( U_k [ M_k ⊙ z(x) ; 1 ] ),   z(x) = matcher-adapted E(x)

The backbone z is *frozen* during blocker training (the paper freezes Θ).

Training data (§3.2.2): batches of b labeled duplicates plus — in the
default ``random`` mode — freshly sampled random records from R and S,
shuffled into b random non-duplicate pairs (the cross terms (r_p, s_i),
(r_i, s_p) are added inside the contrastive loss). The ``labeled`` mode
(Table 4 ablation) instead uses the hard negatives accumulated by AL.

Objective (§3.2.3): contrastive (Eq 8) by default; classification and
triplet objectives are available for the Table 5 ablation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.linalg.autograd import Tensor, const, param
from repro.linalg.losses import (
    contrastive_loss,
    distance_classification_loss,
    triplet_loss,
)
from repro.linalg.optim import BATCH_SIZE, AdamW

# Rank of each member's trained deviation A_k @ B_k from its identity-ish
# base (the paper trains full d x d heads; see DESIGN.md §5).
RANK = 16
# Mask keep-prob: the paper keeps p=0.5 of 768 dims (384 kept); at d=192
# that is far more destructive, so 0.9 keeps ~173 dims (DESIGN.md §5).
MASK_P = 0.9


@dataclass
class MemberParams:
    """Broadcast-friendly snapshot of one committee member."""

    mask: np.ndarray  # (d,) 0/1
    U: np.ndarray  # (d+1, d)


def member_embed(p: MemberParams, z: np.ndarray) -> np.ndarray:
    """Eq 7 forward pass in pure numpy (used in retrieval UDFs).

    Outputs are L2-normalized: we use the paper's alternative "scaled
    cosine" similarity (§3.2.3 notes either works), which keeps the
    contrastive optimum on the unit sphere instead of letting distances
    blow up into tanh saturation — L2 k-NN on normalized vectors is
    exactly cosine retrieval.
    """
    masked = z * p.mask
    aug = np.concatenate([masked, np.ones((len(z), 1))], axis=1)
    e = np.tanh(aug @ p.U)
    return e / np.maximum(np.linalg.norm(e, axis=1, keepdims=True), 1e-12)


class Blocker:
    """A committee of N embedding heads over frozen adapted embeddings."""

    def __init__(
        self,
        d: int,
        n_members: int = 3,
        mask_p: float = MASK_P,
        seed: int = 0,
    ):
        self.d = d
        self.n_members = n_members
        # temperature for exp(-||u-v||^2 / tau). The paper uses tau=1 at
        # d=768 with transformer-scale embeddings; our hashed embeddings
        # have much smaller norms, so tau is estimated at the first fit
        # as half the median random-pair distance, which puts Eq 8's
        # softmax in its responsive range.
        self.tau: float | None = None
        rng = np.random.default_rng(seed * 131 + 7)
        self.masks = [
            (rng.random(d) < mask_p).astype(np.float64) for _ in range(n_members)
        ]
        # Deviation parameterization U_k = U0_k + V_k: U0 is a frozen
        # identity-ish base (symmetry-breaking noise scaled 1/sqrt(d) so
        # the induced perturbation is a few percent of ||z||), V is the
        # trained deviation starting at 0. AdamW's decoupled weight decay
        # then pulls toward the *identity map*, not toward the zero
        # matrix — with only a few dozen labeled duplicates this "don't
        # move unless the data insists" prior is what keeps the blocker
        # from drifting away from the (already reasonable) adapted space
        # while still letting it learn synonym/noise alignments.
        eps = 0.05 / np.sqrt(d)
        self.U0s = [
            np.vstack(
                [np.eye(d) + eps * rng.standard_normal((d, d)), np.zeros((1, d))]
            )
            for _ in range(n_members)
        ]
        # Rank-limited deviation V_k = A_k @ B_k (rank << |T_p|): a
        # full-rank map can zero out the difference direction of every
        # individual labeled duplicate — pure memorization that tears the
        # rest of the space apart. A low-rank deviation can only encode
        # *systematic* representation divergence (boilerplate subspace,
        # dominant synonym directions), which is what generalizes to the
        # unseen duplicates the blocker exists to recall.
        self.As = [
            param(rng.standard_normal((d + 1, RANK)) * (0.3 / np.sqrt(d)))
            for _ in range(n_members)
        ]
        self.Bs = [
            param(rng.standard_normal((RANK, d)) * (0.3 / np.sqrt(RANK)))
            for _ in range(n_members)
        ]
        # trainable scalars for the classification-objective ablation
        self._cls_scale = [param(np.ones(1)) for _ in range(n_members)]
        self._cls_bias = [param(np.zeros(1)) for _ in range(n_members)]

    # -- forward -----------------------------------------------------------
    def _embed_t(self, k: int, z: np.ndarray) -> Tensor:
        masked = const(z * self.masks[k])
        aug = Tensor.concat([masked, const(np.ones((len(z), 1)))], axis=1)
        e = (aug @ const(self.U0s[k]) + (aug @ self.As[k]) @ self.Bs[k]).tanh()
        norm = (e.pow(2).sum(axis=1, keepdims=True) + 1e-12).sqrt()
        return e / norm

    def member_params(self) -> list[MemberParams]:
        return [
            MemberParams(mask=m.copy(), U=u0 + a.data @ b.data)
            for m, u0, a, b in zip(self.masks, self.U0s, self.As, self.Bs)
        ]

    # -- training ----------------------------------------------------------
    def fit(
        self,
        pos_pairs: tuple[np.ndarray, np.ndarray],
        z_r_pool: np.ndarray,
        z_s_pool: np.ndarray,
        *,
        neg_pairs: tuple[np.ndarray, np.ndarray] | None = None,
        objective: str = "contrastive",
        negatives: str = "random",
        epochs: int = 60,
        seed: int = 0,
    ) -> list[float]:
        """Train every member; returns per-epoch mean loss of member 0.

        ``pos_pairs``: (z_r, z_s) adapted embeddings of T_p duplicates.
        ``z_r_pool``/``z_s_pool``: adapted embeddings of ALL of R and S —
        the random-negative sampling pool of §3.2.2.
        ``neg_pairs``: adapted embeddings of T_n (only used when
        ``negatives='labeled'``, the Table 4 ablation).
        """
        assert objective in ("contrastive", "classification", "triplet")
        assert negatives in ("random", "labeled")
        if negatives == "labeled" and (neg_pairs is None or len(neg_pairs[0]) == 0):
            raise ValueError("labeled negatives requested but neg_pairs is empty")
        zp_r, zp_s = pos_pairs
        n_pos = len(zp_r)
        if self.tau is None:
            self.tau = self._estimate_tau(z_r_pool, z_s_pool)
        trace: list[float] = []
        for k in range(self.n_members):
            rng = np.random.default_rng(seed * 7919 + k)
            extra = (
                [self._cls_scale[k], self._cls_bias[k]]
                if objective == "classification"
                else []
            )
            steps = max(1, (n_pos + BATCH_SIZE - 1) // BATCH_SIZE) * epochs
            # weight decay acts on the deviation factors A_k, B_k
            opt = AdamW(
                [([self.As[k], self.Bs[k]] + extra, 1e-3)],
                total_steps=steps,
                weight_decay=0.05,
            )
            member_trace = []
            for _ in range(epochs):
                order = rng.permutation(n_pos)
                losses = []
                for b0 in range(0, n_pos, BATCH_SIZE):
                    idx = order[b0 : b0 + BATCH_SIZE]
                    b = len(idx)
                    if negatives == "random":
                        # each member shuffles its own fresh random records
                        ri = rng.integers(0, len(z_r_pool), b)
                        si = rng.integers(0, len(z_s_pool), b)
                        zn_r, zn_s = z_r_pool[ri], z_s_pool[si]
                    else:
                        zn_all_r, zn_all_s = neg_pairs
                        ni = rng.integers(0, len(zn_all_r), b)
                        zn_r, zn_s = zn_all_r[ni], zn_all_s[ni]
                    zb_r, zb_s = zp_r[idx], zp_s[idx]
                    # dropout (rate 0.3) augmentation of the *positive*
                    # inputs: with only a few dozen labeled duplicates, a
                    # d x d map memorizes them; jittering the frozen inputs
                    # regularizes toward transforms that co-embed the
                    # unseen duplicates too (analogue of the paper's
                    # dropout layers in the RoBERTa heads, §4.2)
                    keep = 0.7
                    zb_r = zb_r * (rng.random(zb_r.shape) < keep) / keep
                    zb_s = zb_s * (rng.random(zb_s.shape) < keep) / keep
                    loss = self._loss(k, objective, zb_r, zb_s, zn_r, zn_s)
                    opt.zero_grad()
                    loss.backward()
                    opt.step()
                    losses.append(loss.item())
                member_trace.append(float(np.mean(losses)))
            if k == 0:
                trace = member_trace
        return trace

    def _estimate_tau(self, z_r_pool: np.ndarray, z_s_pool: np.ndarray) -> float:
        """Half the median member-0 distance between random R/S records."""
        rng = np.random.default_rng(0)
        n = min(256, len(z_r_pool), len(z_s_pool))
        i = rng.integers(0, len(z_r_pool), n)
        j = rng.integers(0, len(z_s_pool), n)
        p = self.member_params()[0]
        er = member_embed(p, z_r_pool[i])
        es = member_embed(p, z_s_pool[j])
        med = float(np.median(((er - es) ** 2).sum(axis=1)))
        return max(med / 2.0, 1e-6)

    def _loss(self, k, objective, zp_r, zp_s, zn_r, zn_s) -> Tensor:
        er_p = self._embed_t(k, zp_r)
        es_p = self._embed_t(k, zp_s)
        er_n = self._embed_t(k, zn_r)
        es_n = self._embed_t(k, zn_s)
        if objective == "contrastive":
            return contrastive_loss(er_p, es_p, er_n, es_n, tau=self.tau)
        if objective == "triplet":
            return triplet_loss(er_p, es_p, er_n, es_n)
        return distance_classification_loss(
            er_p,
            es_p,
            er_n,
            es_n,
            self._cls_scale[k],
            self._cls_bias[k],
            tau=self.tau,
        )
