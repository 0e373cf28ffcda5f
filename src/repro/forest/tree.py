"""CART decision tree (gini impurity) with random feature subsampling
per split — the randomization that makes a bagged collection of these a
random forest in Breiman's sense. Stored as parallel arrays so a fitted
tree is a plain dict that can ride a Spark broadcast."""
from __future__ import annotations

import numpy as np

MIN_SAMPLES_LEAF = 2  # fewest training rows per leaf (the paper sets no tree knobs)


class DecisionTree:
    def __init__(
        self,
        max_depth: int = 8,
        n_feature_sample: int | None = None,
        seed: int = 0,
    ):
        self.max_depth = max_depth
        self.n_feature_sample = n_feature_sample
        self.rng = np.random.default_rng(seed)
        # node arrays: feature<0 means leaf, value = P(y=1) at the leaf
        self.feature: list[int] = []
        self.thresh: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    @staticmethod
    def _gini(y: np.ndarray) -> float:
        if len(y) == 0:
            return 0.0
        p = y.mean()
        return 2 * p * (1 - p)

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        n, f = X.shape
        feats = np.arange(f)
        if self.n_feature_sample and self.n_feature_sample < f:
            feats = self.rng.choice(f, size=self.n_feature_sample, replace=False)
        best = (None, None, self._gini(y))
        for j in feats:
            vals = np.unique(X[:, j])
            if len(vals) < 2:
                continue
            cuts = (vals[:-1] + vals[1:]) / 2
            if len(cuts) > 16:  # quantile thinning for speed
                cuts = np.quantile(X[:, j], np.linspace(0.05, 0.95, 16))
            for c in cuts:
                m = X[:, j] <= c
                nl = int(m.sum())
                if nl < MIN_SAMPLES_LEAF or n - nl < MIN_SAMPLES_LEAF:
                    continue
                g = (nl * self._gini(y[m]) + (n - nl) * self._gini(y[~m])) / n
                if g < best[2] - 1e-12:
                    best = (int(j), float(c), g)
        return best

    def _add_leaf(self, y: np.ndarray) -> int:
        i = len(self.feature)
        self.feature.append(-1)
        self.thresh.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(y.mean()) if len(y) else 0.5)
        return i

    def _build(self, X, y, depth) -> int:
        if depth >= self.max_depth or len(np.unique(y)) < 2 or len(y) < 2 * MIN_SAMPLES_LEAF:
            return self._add_leaf(y)
        j, c, _ = self._best_split(X, y)
        if j is None:
            return self._add_leaf(y)
        i = len(self.feature)
        self.feature.append(j)
        self.thresh.append(c)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(y.mean()))
        m = X[:, j] <= c
        li = self._build(X[m], y[m], depth + 1)
        ri = self._build(X[~m], y[~m], depth + 1)
        self.left[i] = li
        self.right[i] = ri
        return i

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        self.feature, self.thresh, self.left, self.right, self.value = [], [], [], [], []
        self._build(np.asarray(X, float), np.asarray(y, float), 0)
        return self

    def to_arrays(self) -> dict:
        return {
            "feature": np.array(self.feature),
            "thresh": np.array(self.thresh),
            "left": np.array(self.left),
            "right": np.array(self.right),
            "value": np.array(self.value),
        }


def predict_tree(t: dict, X: np.ndarray) -> np.ndarray:
    """Vectorized traversal of an array-encoded tree (broadcast-safe)."""
    n = len(X)
    node = np.zeros(n, dtype=int)
    out = np.empty(n)
    active = np.arange(n)
    while len(active):
        f = t["feature"][node[active]]
        leaf = f < 0
        leaf_rows = active[leaf]
        out[leaf_rows] = t["value"][node[leaf_rows]]
        active = active[~leaf]
        if len(active) == 0:
            break
        f = t["feature"][node[active]]
        c = t["thresh"][node[active]]
        go_left = X[active, f] <= c
        node[active] = np.where(
            go_left, t["left"][node[active]], t["right"][node[active]]
        )
    return out
