"""Random-forest substrate + classic pair features."""
import numpy as np
import pandas as pd
import pytest

from repro.forest.features import FEATURE_NAMES, PairFeaturizer
from repro.forest.forest import RandomForest, forest_leaves, forest_proba, forest_vote_variance
from repro.forest.tree import DecisionTree, predict_tree


def _xor_free_data(n=300, seed=0):
    """Linearly separable-by-threshold data a tree must nail."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, 3))
    y = (X[:, 1] > 0.55).astype(float)
    return X, y


def test_tree_fits_threshold_rule():
    X, y = _xor_free_data()
    t = DecisionTree(max_depth=3, seed=0).fit(X, y)
    acc = ((predict_tree(t.to_arrays(), X) > 0.5) == y).mean()
    assert acc > 0.97


def test_tree_fits_conjunction():
    rng = np.random.default_rng(1)
    X = rng.random((500, 4))
    y = ((X[:, 0] > 0.5) & (X[:, 2] < 0.4)).astype(float)
    t = DecisionTree(max_depth=5, seed=0).fit(X, y)
    assert (((predict_tree(t.to_arrays(), X) > 0.5) == y).mean()) > 0.95


def test_tree_pure_labels_single_leaf():
    X = np.random.default_rng(0).random((20, 2))
    t = DecisionTree().fit(X, np.ones(20))
    assert t.feature == [-1]
    np.testing.assert_allclose(predict_tree(t.to_arrays(), X), 1.0)


def test_tree_respects_max_depth():
    X, y = _xor_free_data(500, 2)
    t = DecisionTree(max_depth=1, seed=0).fit(X, y)
    assert len(t.feature) <= 3  # root + 2 leaves


def test_predict_tree_vectorized_matches_scalar():
    X, y = _xor_free_data(100, 3)
    t = DecisionTree(max_depth=4, seed=0).fit(X, y)
    arrays = t.to_arrays()
    batch = predict_tree(arrays, X)
    singles = np.array([predict_tree(arrays, X[i : i + 1])[0] for i in range(len(X))])
    np.testing.assert_allclose(batch, singles)


def test_forest_beats_chance_and_is_deterministic():
    X, y = _xor_free_data(400, 4)
    f1 = RandomForest(n_trees=10, seed=0).fit(X, y)
    f2 = RandomForest(n_trees=10, seed=0).fit(X, y)
    p1, p2 = (forest_proba(forest_leaves(f.trees, X)) for f in (f1, f2))
    np.testing.assert_allclose(p1, p2)
    assert (((p1 > 0.5) == y).mean()) > 0.95


def test_forest_vote_variance_bounds():
    X, y = _xor_free_data(200, 5)
    f = RandomForest(n_trees=20, seed=0).fit(X, y)
    v = forest_vote_variance(forest_leaves(f.trees, X))
    assert np.all(v >= 0) and np.all(v <= 0.25 + 1e-12)


def test_vote_variance_high_on_ambiguous_points():
    rng = np.random.default_rng(6)
    X = rng.random((400, 2))
    y = (X[:, 0] > 0.5).astype(float)
    f = RandomForest(n_trees=20, seed=0).fit(X, y)
    near = np.column_stack([np.full(50, 0.5), rng.random(50)])
    far = np.column_stack([np.full(50, 0.95), rng.random(50)])
    v_near, v_far = (forest_vote_variance(forest_leaves(f.trees, x)) for x in (near, far))
    assert v_near.mean() > v_far.mean()


def test_forest_proba_is_tree_mean():
    X, y = _xor_free_data(100, 7)
    f = RandomForest(n_trees=5, seed=0).fit(X, y)
    want = np.mean([predict_tree(t, X) for t in f.trees], axis=0)
    np.testing.assert_array_equal(forest_proba(forest_leaves(f.trees, X)), want)


def test_forest_vote_variance_is_per_tree_vote_share():
    """Both scores read one leaf matrix; the variance equals the
    per-tree loop bit for bit."""
    X, y = _xor_free_data(200, 8)
    f = RandomForest(n_trees=20, seed=0).fit(X, y)
    q = np.mean([(predict_tree(t, X) > 0.5) for t in f.trees], axis=0)
    np.testing.assert_array_equal(forest_vote_variance(forest_leaves(f.trees, X)), q * (1 - q))


# -- pair features ----------------------------------------------------------

def _featurizer(ds, store):
    return PairFeaturizer(
        ds.r_pdf, ds.s_pdf, store.r_emb, store.s_emb, store.r_index, store.s_index
    )


def test_pair_features_shape_and_names(runner, wa, wa_store):
    pairs = wa.dups_pdf.head(5)
    X = _featurizer(wa, wa_store)(pairs)
    assert X.shape == (5, len(FEATURE_NAMES))


def test_pair_features_ranges(runner, wa, wa_store):
    pairs = pd.concat([wa.dups_pdf.head(10), wa.seed_neg_pdf.head(10)])
    X = _featurizer(wa, wa_store)(pairs)
    assert np.all(X[:, :5] >= 0) and np.all(X[:, :5] <= 1)
    assert np.all(X[:, 6] >= -1 - 1e-9) and np.all(X[:, 6] <= 1 + 1e-9)


def test_dup_features_exceed_random_negatives(runner, wa, wa_store):
    """Duplicates score higher on jaccard/cosine than random pairs."""
    rng = np.random.default_rng(0)
    dups = wa.dups_pdf.head(15)
    rand = pd.DataFrame(
        {
            "rid_r": rng.choice(wa.r_pdf.rid, 30),
            "rid_s": rng.choice(wa.s_pdf.rid, 30),
        }
    )
    dup_set = wa.dup_set
    rand = rand[[(r, s) not in dup_set for r, s in zip(rand.rid_r, rand.rid_s)]]
    feat = _featurizer(wa, wa_store)
    Xd, Xr = feat(dups), feat(rand)
    assert Xd[:, 0].mean() > Xr[:, 0].mean() + 0.05  # title jaccard
    assert Xd[:, 6].mean() > Xr[:, 6].mean() + 0.05  # embedding cosine


def test_featurizer_picklable(runner, wa, wa_store):
    import pickle

    f = _featurizer(wa, wa_store)
    f2 = pickle.loads(pickle.dumps(f))
    pairs = wa.dups_pdf.head(3)
    np.testing.assert_allclose(f(pairs), f2(pairs))
