"""Bootstrap-bagged random forest whose trees double as the QBC
committee (learner-aware QBC via bootstrap, Mozafari et al. §2.3.1)."""
from __future__ import annotations

import numpy as np

from repro.forest.tree import DecisionTree, predict_tree


class RandomForest:
    def __init__(self, n_trees: int = 20, seed: int = 0):
        self.n_trees = n_trees
        self.seed = seed
        self.trees: list[dict] = []

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, float)
        y = np.asarray(y, float)
        n, f = X.shape
        rng = np.random.default_rng(self.seed)
        mtry = max(1, int(np.sqrt(f)))
        self.trees = []
        for t in range(self.n_trees):
            boot = rng.integers(0, n, n)  # bootstrap: same size, with replacement
            tree = DecisionTree(n_feature_sample=mtry, seed=self.seed * 1000 + t).fit(
                X[boot], y[boot]
            )
            self.trees.append(tree.to_arrays())
        return self


def forest_proba(trees: list[dict], X: np.ndarray) -> np.ndarray:
    return np.mean([predict_tree(t, X) for t in trees], axis=0)


def forest_vote_variance(trees: list[dict], X: np.ndarray) -> np.ndarray:
    """Mozafari et al.'s QBC variance: v = q(1-q), q = #match/m where
    a member "predicts match" if its leaf probability > 0.5."""
    votes = np.mean([(predict_tree(t, X) > 0.5) for t in trees], axis=0)
    return votes * (1 - votes)
