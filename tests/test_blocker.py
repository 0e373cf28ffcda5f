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
