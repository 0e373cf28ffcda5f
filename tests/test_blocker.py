"""The IBC blocker committee (Eq 7, §3.2)."""
import numpy as np
import pytest

from repro.core.blocker import RANK, Blocker, MemberParams, member_embed


def _pools(seed=0, n=80, d=32):
    rng = np.random.default_rng(seed)
    z_r = rng.standard_normal((n, d)) * 0.3
    z_s = rng.standard_normal((n, d)) * 0.3
    return z_r, z_s


def _systematic_pos(seed=1, b=24, d=32):
    """Duplicates related by a fixed linear shift (learnable alignment)."""
    rng = np.random.default_rng(seed)
    zp_r = rng.standard_normal((b, d)) * 0.3
    shift = np.zeros(d)
    shift[:4] = 0.8
    zp_s = zp_r + shift + rng.standard_normal((b, d)) * 0.02
    return zp_r, zp_s


def test_masks_fraction_and_fixed():
    b = Blocker(64, n_members=3, mask_p=0.5, seed=0)
    for m in b.masks:
        assert 0.25 <= m.mean() <= 0.75
        assert set(np.unique(m)) <= {0.0, 1.0}
    b2 = Blocker(64, n_members=3, mask_p=0.5, seed=0)
    for m1, m2 in zip(b.masks, b2.masks):
        np.testing.assert_array_equal(m1, m2)


def test_members_have_distinct_masks_and_inits():
    b = Blocker(64, n_members=3, mask_p=0.5, seed=0)
    assert not np.array_equal(b.masks[0], b.masks[1])
    assert not np.array_equal(b.U0s[0], b.U0s[1])


def test_member_embed_normalized():
    b = Blocker(32, n_members=2, seed=0)
    z = np.random.default_rng(0).standard_normal((10, 32)) * 0.3
    e = member_embed(b.member_params()[0], z)
    np.testing.assert_allclose(np.linalg.norm(e, axis=1), 1.0, rtol=1e-9)


def test_member_embed_matches_tensor_path():
    b = Blocker(16, n_members=1, seed=0)
    z = np.random.default_rng(1).standard_normal((6, 16)) * 0.3
    e_np = member_embed(b.member_params()[0], z)
    e_t = b._embed_t(0, z).data
    np.testing.assert_allclose(e_np, e_t, atol=1e-12)


def test_untrained_member_near_identity_direction():
    """Identity-ish init: untrained member embedding preserves cosine
    structure of its input (full-keep mask)."""
    b = Blocker(48, n_members=1, mask_p=1.0, seed=0)
    rng = np.random.default_rng(2)
    z = rng.standard_normal((40, 48)) * 0.3
    e = member_embed(b.member_params()[0], z)
    zn = z / np.linalg.norm(z, axis=1, keepdims=True)
    cos_in = zn @ zn.T
    cos_out = e @ e.T
    assert np.corrcoef(cos_in.ravel(), cos_out.ravel())[0, 1] > 0.95


@pytest.mark.parametrize("objective", ["contrastive", "triplet", "classification"])
def test_fit_reduces_loss(objective):
    z_r, z_s = _pools()
    zp_r, zp_s = _systematic_pos()
    b = Blocker(32, n_members=1, mask_p=1.0, seed=0)
    trace = b.fit(
        (zp_r, zp_s), z_r, z_s, objective=objective, epochs=30, seed=0
    )
    assert trace[-1] < trace[0]


def test_contrastive_training_aligns_systematic_shift():
    """After training, shifted duplicates are closer than random pairs —
    the learned-alignment property Table 3 depends on."""
    z_r, z_s = _pools()
    zp_r, zp_s = _systematic_pos()
    b = Blocker(32, n_members=1, mask_p=1.0, seed=0)
    before_pos = np.linalg.norm(
        member_embed(b.member_params()[0], zp_r)
        - member_embed(b.member_params()[0], zp_s),
        axis=1,
    ).mean()
    b.fit((zp_r, zp_s), z_r, z_s, epochs=40, seed=0)
    p = b.member_params()[0]
    after_pos = np.linalg.norm(
        member_embed(p, zp_r) - member_embed(p, zp_s), axis=1
    ).mean()
    rand = np.linalg.norm(
        member_embed(p, z_r) - member_embed(p, z_s), axis=1
    ).mean()
    assert after_pos < before_pos
    assert after_pos < 0.7 * rand


def test_labeled_negatives_mode_requires_pairs():
    z_r, z_s = _pools()
    zp = _systematic_pos()
    b = Blocker(32, seed=0)
    with pytest.raises(ValueError):
        b.fit(zp, z_r, z_s, negatives="labeled", neg_pairs=None, epochs=1)


def test_labeled_negatives_mode_trains():
    z_r, z_s = _pools()
    zp_r, zp_s = _systematic_pos()
    rng = np.random.default_rng(5)
    neg = (rng.standard_normal((20, 32)) * 0.3, rng.standard_normal((20, 32)) * 0.3)
    b = Blocker(32, n_members=2, seed=0)
    trace = b.fit(
        (zp_r, zp_s), z_r, z_s, neg_pairs=neg, negatives="labeled", epochs=10, seed=0
    )
    assert len(trace) == 10


def test_tau_estimated_once():
    z_r, z_s = _pools()
    zp = _systematic_pos()
    b = Blocker(32, seed=0)
    assert b.tau is None
    b.fit(zp, z_r, z_s, epochs=1, seed=0)
    assert b.tau is not None and b.tau > 0


def test_rank_limits_deviation():
    b = Blocker(32, n_members=1, seed=0)
    z_r, z_s = _pools()
    zp = _systematic_pos()
    b.fit(zp, z_r, z_s, epochs=10, seed=0)
    dev = b.As[0].data @ b.Bs[0].data
    assert RANK == 16
    assert np.linalg.matrix_rank(dev, tol=1e-9) <= RANK < 32


def test_invalid_objective_rejected():
    b = Blocker(16, seed=0)
    z_r, z_s = _pools(d=16)
    with pytest.raises(AssertionError):
        b.fit((z_r[:4], z_s[:4]), z_r, z_s, objective="nope", epochs=1)


def test_member_params_snapshot_independent():
    b = Blocker(16, seed=0)
    p = b.member_params()[0]
    p.U[0, 0] += 99
    assert b.U0s[0][0, 0] != p.U[0, 0]


def _reference_fit(b, pos_pairs, z_r_pool, z_s_pool, neg_pairs, objective, negatives, epochs, seed):
    """Blocker.fit's per-member loop as written out before it ran on
    ``fit_minibatches``: the trainer must reproduce it bit for bit."""
    from repro.linalg.optim import BATCH_SIZE, AdamW

    zp_r, zp_s = pos_pairs
    n_pos = len(zp_r)
    b.tau = b._estimate_tau(z_r_pool, z_s_pool)
    trace = []
    for k in range(b.n_members):
        rng = np.random.default_rng(seed * 7919 + k)
        extra = [b._cls_scale[k], b._cls_bias[k]] if objective == "classification" else []
        steps = max(1, (n_pos + BATCH_SIZE - 1) // BATCH_SIZE) * epochs
        opt = AdamW([([b.As[k], b.Bs[k]] + extra, 1e-3)], total_steps=steps, weight_decay=0.05)
        member_trace = []
        for _ in range(epochs):
            order = rng.permutation(n_pos)
            losses = []
            for b0 in range(0, n_pos, BATCH_SIZE):
                idx = order[b0 : b0 + BATCH_SIZE]
                n = len(idx)
                if negatives == "random":
                    ri = rng.integers(0, len(z_r_pool), n)
                    si = rng.integers(0, len(z_s_pool), n)
                    zn_r, zn_s = z_r_pool[ri], z_s_pool[si]
                else:
                    ni = rng.integers(0, len(neg_pairs[0]), n)
                    zn_r, zn_s = neg_pairs[0][ni], neg_pairs[1][ni]
                zb_r, zb_s = zp_r[idx], zp_s[idx]
                zb_r = zb_r * (rng.random(zb_r.shape) < 0.7) / 0.7
                zb_s = zb_s * (rng.random(zb_s.shape) < 0.7) / 0.7
                loss = b._loss(k, objective, zb_r, zb_s, zn_r, zn_s)
                opt.zero_grad()
                loss.backward()
                opt.step()
                losses.append(loss.item())
            member_trace.append(float(np.mean(losses)))
        if k == 0:
            trace = member_trace
    return trace


@pytest.mark.parametrize("objective", ["contrastive", "classification"])
@pytest.mark.parametrize("negatives", ["random", "labeled"])
def test_fit_matches_the_reference_loop_bit_for_bit(negatives, objective):
    z_r, z_s = _pools()
    pos = _systematic_pos(b=37)
    rng = np.random.default_rng(5)
    neg = (rng.standard_normal((20, 32)) * 0.3, rng.standard_normal((20, 32)) * 0.3)
    kw = dict(objective=objective, negatives=negatives, epochs=4, seed=3)
    fitted, ref = Blocker(32, n_members=2, seed=1), Blocker(32, n_members=2, seed=1)
    trace = fitted.fit(pos, z_r, z_s, neg_pairs=neg, **kw)
    assert trace == _reference_fit(ref, pos, z_r, z_s, neg, **kw)
    for a, b in zip(fitted.member_params(), ref.member_params()):
        np.testing.assert_array_equal(a.U, b.U)
    for a, b in zip(fitted._cls_scale + fitted._cls_bias, ref._cls_scale + ref._cls_bias):
        np.testing.assert_array_equal(a.data, b.data)
