"""Classic similarity features for the pre-deep-learning baseline.

The Magellan/Meduri-style feature vector for a record pair: token
Jaccard/containment on the title, full-text Jaccard, length ratio,
brand (grp) and model-code (key) agreement, and cosine of the hashed
base embeddings. Computed on the driver for the (small) labeled set and
inside a Spark ``mapInPandas`` for the candidate set.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.text.tokenize import jaccard, tokenize

FEATURE_NAMES = [
    "title_jaccard",
    "title_containment",
    "text_jaccard",
    "len_ratio",
    "grp_equal",
    "key_equal",
    "emb_cosine",
]


def _record_maps(pdf: pd.DataFrame) -> dict:
    return {
        row.rid: {
            "title_toks": frozenset(tokenize(row.title)),
            "text_toks": frozenset(tokenize(row.text)),
            "grp": row.grp,
            "key": row.key,
        }
        for row in pdf.itertuples()
    }


def _cont(a: frozenset, b: frozenset) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


class PairFeaturizer:
    """Holds the per-record lookup maps + embeddings; picklable so it can
    ride a Spark broadcast into the scoring UDF."""

    def __init__(self, r_pdf, s_pdf, r_emb, s_emb, r_index, s_index):
        self.r_map = _record_maps(r_pdf)
        self.s_map = _record_maps(s_pdf)
        self.r_emb = r_emb
        self.s_emb = s_emb
        self.r_index = r_index
        self.s_index = s_index

    def __call__(self, pairs: pd.DataFrame) -> np.ndarray:
        n = len(pairs)
        out = np.zeros((n, len(FEATURE_NAMES)))
        er = self.r_emb[[self.r_index[r] for r in pairs.rid_r]]
        es = self.s_emb[[self.s_index[s] for s in pairs.rid_s]]
        nr = np.linalg.norm(er, axis=1) * np.linalg.norm(es, axis=1)
        cos = np.where(nr > 0, (er * es).sum(axis=1) / np.maximum(nr, 1e-12), 0.0)
        for i, (rid_r, rid_s) in enumerate(zip(pairs.rid_r, pairs.rid_s)):
            r, s = self.r_map[rid_r], self.s_map[rid_s]
            tr, ts = r["title_toks"], s["title_toks"]
            xr, xs = r["text_toks"], s["text_toks"]
            out[i, 0] = jaccard(tr, ts)
            out[i, 1] = _cont(tr, ts)
            out[i, 2] = jaccard(xr, xs)
            out[i, 3] = min(len(xr), len(xs)) / max(1, max(len(xr), len(xs)))
            out[i, 4] = float(bool(r["grp"]) and r["grp"] == s["grp"])
            out[i, 5] = float(bool(r["key"]) and r["key"] == s["key"])
            out[i, 6] = cos[i]
        return out
