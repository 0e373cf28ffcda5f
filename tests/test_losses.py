"""Loss functions: values, gradients, and the learning dynamics the
paper's ablations depend on."""
import numpy as np
import pytest

from repro.linalg.autograd import Tensor, const, param
from repro.linalg.losses import (
    bce_with_logits,
    class_balance_weights,
    contrastive_loss,
    distance_classification_loss,
    pairwise_sqdist,
    rowwise_sqdist,
    triplet_loss,
)


def test_bce_matches_reference():
    z = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
    got = bce_with_logits(const(z), y).item()
    p = 1 / (1 + np.exp(-z))
    want = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_bce_stable_at_extreme_logits():
    z = const(np.array([1000.0, -1000.0]))
    y = np.array([1.0, 0.0])
    assert bce_with_logits(z, y).item() < 1e-6  # correct & confident -> ~0
    y_wrong = np.array([0.0, 1.0])
    v = bce_with_logits(z, y_wrong).item()
    assert np.isfinite(v) and v > 100


def test_bce_weights_rescale():
    z = const(np.array([1.0, -1.0]))
    y = np.array([1.0, 0.0])
    w = np.array([3.0, 1.0])
    got = bce_with_logits(z, y, w).item()
    per = np.log(1 + np.exp(-np.array([1.0, 1.0])))  # both correct by 1.0
    want = (w * per).sum() / w.sum()
    np.testing.assert_allclose(got, want, rtol=1e-10)


@pytest.mark.parametrize("n_pos,n_neg", [(2, 8), (5, 5), (1, 99)])
def test_class_balance_weights_equalize(n_pos, n_neg):
    y = np.concatenate([np.ones(n_pos), np.zeros(n_neg)])
    w = class_balance_weights(y)
    np.testing.assert_allclose(w[y == 1].sum(), w[y == 0].sum())


def test_class_balance_degenerate_classes():
    np.testing.assert_array_equal(class_balance_weights(np.ones(4)), np.ones(4))
    np.testing.assert_array_equal(class_balance_weights(np.zeros(4)), np.ones(4))


def test_pairwise_sqdist_matches_numpy():
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((5, 4)), rng.standard_normal((7, 4))
    got = pairwise_sqdist(const(a), const(b)).data
    want = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_rowwise_sqdist_matches_numpy():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
    np.testing.assert_allclose(
        rowwise_sqdist(const(a), const(b)).data, ((a - b) ** 2).sum(-1), atol=1e-12
    )


def _toy_embeddings(seed=0, b=6, d=8):
    rng = np.random.default_rng(seed)
    er_p = rng.standard_normal((b, d)) * 0.5
    es_p = er_p + rng.standard_normal((b, d)) * 0.1  # dups are close
    er_n = rng.standard_normal((b, d)) * 0.5
    es_n = rng.standard_normal((b, d)) * 0.5
    return er_p, es_p, er_n, es_n


def test_contrastive_lower_when_dups_close():
    er_p, es_p, er_n, es_n = _toy_embeddings()
    close = contrastive_loss(const(er_p), const(es_p), const(er_n), const(es_n)).item()
    far = contrastive_loss(const(er_n), const(es_n), const(er_p), const(es_p)).item()
    assert close < far


def test_contrastive_upper_bound_is_log_terms():
    """With all similarities equal the softmax is uniform: loss=log(3b+1)."""
    b, d = 4, 3
    z = np.zeros((b, d))
    loss = contrastive_loss(const(z), const(z), const(z), const(z)).item()
    np.testing.assert_allclose(loss, np.log(3 * b + 1), rtol=1e-10)


def test_contrastive_gradient_numeric():
    er_p, es_p, er_n, es_n = _toy_embeddings(b=3, d=4)
    U = param(np.eye(4) + 0.1)

    def f():
        return contrastive_loss(
            const(er_p) @ U, const(es_p) @ U, const(er_n) @ U, const(es_n) @ U,
            tau=2.0,
        )

    loss = f()
    loss.backward()
    g = U.grad.copy()
    eps = 1e-6
    i, j = 1, 2
    U.data[i, j] += eps
    hi = f().item()
    U.data[i, j] -= 2 * eps
    lo = f().item()
    U.data[i, j] += eps
    np.testing.assert_allclose(g[i, j], (hi - lo) / (2 * eps), rtol=1e-5, atol=1e-7)


def test_contrastive_training_separates(rng=np.random.default_rng(3)):
    """Minimizing Eq 8 over a linear map pulls dups together relative to
    random pairs — the property §3.2.3 relies on."""
    from repro.linalg.optim import AdamW

    d = 6
    # duplicates differ by a fixed systematic offset in one direction
    base = rng.standard_normal((20, d))
    offset = np.zeros(d)
    offset[0] = 2.0
    er_p, es_p = base, base + offset
    U = param(np.eye(d))
    opt = AdamW([([U], 5e-2)])
    for step in range(150):
        nr = rng.standard_normal((8, d))
        ns = rng.standard_normal((8, d))
        loss = contrastive_loss(
            const(er_p) @ U, const(es_p) @ U, const(nr) @ U, const(ns) @ U, tau=2.0
        )
        opt.zero_grad()
        loss.backward()
        opt.step()
    d_pos = (((er_p @ U.data) - (es_p @ U.data)) ** 2).sum(1).mean()
    d_rand = (
        ((rng.standard_normal((50, d)) @ U.data) - (rng.standard_normal((50, d)) @ U.data)) ** 2
    ).sum(1).mean()
    assert d_pos < 0.2 * d_rand  # dup direction squashed


def test_triplet_zero_when_margin_satisfied():
    er_p = np.zeros((3, 4))
    es_p = np.zeros((3, 4))
    far = np.ones((3, 4)) * 10
    v = triplet_loss(const(er_p), const(es_p), const(far), const(far))
    np.testing.assert_allclose(v.item(), 0.0)


def test_triplet_penalizes_close_negatives():
    er_p = np.zeros((3, 4))
    es_p = np.ones((3, 4))  # positive at distance 2
    near = np.zeros((3, 4)) + 0.1  # negatives nearer than the positive
    v = triplet_loss(const(er_p), const(es_p), const(near), const(near))
    assert v.item() > 0


def test_distance_classification_loss_behaviour():
    er_p, es_p, er_n, es_n = _toy_embeddings(b=5, d=6)
    scale = param(np.ones(1) * 2.0)
    bias = param(np.ones(1) * 0.5)
    good = distance_classification_loss(
        const(er_p), const(es_p), const(er_n), const(es_n), scale, bias
    ).item()
    # swap: dups far, randoms close -> higher loss
    bad = distance_classification_loss(
        const(er_n), const(es_n), const(er_p), const(es_p), scale, bias
    ).item()
    assert good < bad
