"""HashedLM: the frozen "pretrained encoder" substitute.

Token vector = unit-normalized sum of (a) a whole-token hashed gaussian
vector and (b) hashed vectors of the token's char-3-grams. The 3-gram
component gives typo/abbreviation robustness: ``panasonic`` and
``panasonlc`` share most 3-grams so their vectors correlate — the same
property the paper attributes to TPLM subword tokenization (§2.2).

Record embedding = mean of token vectors (single mode, Eq 3).

Determinism: vectors are derived from blake2b digests of the token
bytes, so the same token maps to the same vector in every process
(driver and all Spark executors) with no shared state. Executor UDFs
take the process-wide instance of ``shared_lm(d)``, so a reused Python
worker keeps its token cache across tasks, rounds and runs.
"""
from __future__ import annotations

import functools
import hashlib

import numpy as np

from repro.text.tokenize import jaccard, tokenize


def _hash_seed(key: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    ) & 0x7FFFFFFF


class HashedLM:
    """Deterministic hashed token embeddings with an in-process cache.

    Parameters
    ----------
    d : embedding dimension (the paper's TPLM uses 768; we default 192).

    The whole-token and char-3-gram components weigh the same: a typo'd
    token keeps cosine ~0.35 to the original — subword robustness
    without smearing distinct words together.
    """

    def __init__(self, d: int = 192):
        self.d = d
        self._tok_cache: dict[str, np.ndarray] = {}
        self._ng_cache: dict[str, np.ndarray] = {}

    # -- token level -------------------------------------------------------
    def _hashed_vec(self, key: str, cache: dict) -> np.ndarray:
        v = cache.get(key)
        if v is None:
            rng = np.random.default_rng(_hash_seed(key))
            v = rng.standard_normal(self.d)
            v /= np.linalg.norm(v)
            cache[key] = v
        return v

    def token_vec(self, token: str) -> np.ndarray:
        """Unit vector for one token (whole-token + char-3-gram parts)."""
        v = self._tok_cache.get(token)
        if v is not None:
            return v
        whole = self._hashed_vec("tok:" + token, self._ng_cache)
        v = whole.copy()
        if len(token) >= 3:
            padded = f"^{token}$"
            grams = [padded[i : i + 3] for i in range(len(padded) - 2)]
            gv = np.zeros(self.d)
            for g in grams:
                gv += self._hashed_vec("3g:" + g, self._ng_cache)
            gv /= max(1.0, np.linalg.norm(gv))
            v = whole + gv
        v /= np.linalg.norm(v)
        self._tok_cache[token] = v
        return v

    # -- record level ------------------------------------------------------
    def encode(self, text: str) -> np.ndarray:
        """Single-mode record embedding E(x): mean of token vectors (Eq 3)."""
        toks = tokenize(text)
        if not toks:
            return np.zeros(self.d)
        out = np.zeros(self.d)
        for t in toks:
            out += self.token_vec(t)
        return out / len(toks)

    def encode_batch(self, texts) -> np.ndarray:
        """(n, d) matrix of record embeddings."""
        return np.stack([self.encode(t) for t in texts]) if len(texts) else np.zeros((0, self.d))

    def token_matrix(self, text: str) -> np.ndarray:
        """(n_tokens, d) token embeddings, for pair alignment features."""
        toks = tokenize(text)
        if not toks:
            return np.zeros((0, self.d))
        return np.stack([self.token_vec(t) for t in toks])


@functools.lru_cache(maxsize=None)
def shared_lm(d: int) -> HashedLM:
    """The process-wide ``HashedLM`` of dimension ``d``, for executor UDFs.

    Its vectors equal a fresh ``HashedLM(d)``'s bit for bit; only the
    warm token cache is shared.
    """
    return HashedLM(d)


N_ALIGN_FEATURES = 6


def alignment_features(lm: HashedLM, text_r: str, text_s: str) -> np.ndarray:
    """Cheap stand-in for paired-mode cross-attention (6 scalars).

    From the token-embedding cosine alignment matrix: mean of row-max
    (coverage of r by s), mean of col-max, overall max, fraction of r
    tokens with a near-exact (>0.9) counterpart. Plus two token-level
    stats cross-attention trivially exposes: exact-token Jaccard and
    *numeric-token* Jaccard. The numeric one is the §2.2.1 book-edition/
    price/model-number signal — duplicates share their digits, sibling
    near-duplicates do not — and is what keeps the matcher precise on
    the candidate set's hard negatives.
    """
    tr = lm.token_matrix(text_r)
    ts = lm.token_matrix(text_s)
    if tr.shape[0] == 0 or ts.shape[0] == 0:
        return np.zeros(N_ALIGN_FEATURES)
    sim = tr @ ts.T  # token vecs are unit-norm → cosine
    row_max = sim.max(axis=1)
    col_max = sim.max(axis=0)
    tok_r, tok_s = set(tokenize(text_r)), set(tokenize(text_s))
    num_r = {t for t in tok_r if any(c.isdigit() for c in t)}
    num_s = {t for t in tok_s if any(c.isdigit() for c in t)}
    return np.array(
        [
            row_max.mean(),
            col_max.mean(),
            sim.max(),
            float((row_max > 0.9).mean()),
            jaccard(tok_r, tok_s),
            jaccard(num_r, num_s),
        ]
    )


def alignment_features_batch(lm: HashedLM, texts_r, texts_s) -> np.ndarray:
    """(n, 6) alignment features for aligned lists of record texts."""
    n = len(texts_r)
    out = np.zeros((n, N_ALIGN_FEATURES))
    for i in range(n):
        out[i] = alignment_features(lm, texts_r[i], texts_s[i])
    return out
