"""Random-forest substrate for the non-TPLM baseline (§4.3).

Meduri et al.'s benchmark found random forests with learner-aware QBC
remarkably strong for AL-based ER; this package provides numpy CART
trees, a bootstrap-bagged forest (whose trees double as the QBC
committee), and the classic string-similarity pair features they
consume.
"""
from repro.forest.tree import DecisionTree  # noqa: F401
from repro.forest.forest import RandomForest  # noqa: F401
from repro.forest.features import FEATURE_NAMES  # noqa: F401
