"""Procedural vocabularies for the synthetic ER benchmarks.

Words are pronounceable syllable strings drawn deterministically from a
seeded RNG, with Zipfian frequency when sampled (common words dominate,
like real product/citation text — this is what makes token blocking and
meta-blocking non-trivial). Brands/venues/names are low-cardinality
shared vocabularies so non-duplicates collide on them, creating the
hard negatives active learning feeds on.
"""
from __future__ import annotations

import numpy as np

_CONS = list("bcdfghklmnprstvz")
_VOW = list("aeiou")


def _word(rng: np.random.Generator, n_syll: int) -> str:
    return "".join(
        _CONS[rng.integers(len(_CONS))] + _VOW[rng.integers(len(_VOW))]
        for _ in range(n_syll)
    )


def make_words(n: int, seed: int, n_syll_hi: int = 4) -> list[str]:
    """n distinct pseudo-words of 2 to ``n_syll_hi`` syllables,
    deterministic in seed."""
    rng = np.random.default_rng(seed)
    out: list[str] = []
    seen = set()
    while len(out) < n:
        w = _word(rng, int(rng.integers(2, n_syll_hi + 1)))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


def zipf_weights(n: int, alpha: float = 1.1) -> np.ndarray:
    """Normalized Zipf sampling weights over ranks 1..n."""
    w = 1.0 / np.arange(1, n + 1) ** alpha
    return w / w.sum()


class Vocab:
    """Shared vocabulary pools for one dataset family."""

    def __init__(self, seed: int = 0):
        self.brands = make_words(40, seed * 7 + 1, 3)
        self.categories = make_words(25, seed * 7 + 2, 3)
        self.descriptors = make_words(300, seed * 7 + 3, 4)
        self.title_words = make_words(500, seed * 7 + 4, 4)
        self.first_names = make_words(60, seed * 7 + 5, 3)
        self.last_names = make_words(120, seed * 7 + 6, 4)
        self.venues = make_words(15, seed * 7 + 7, 3)
        # S-side catalog boilerplate ("free shipping", "oem", ...): big
        # enough that different records draw different blurbs (high
        # embedding variance) yet blurbs still recur across records
        self.noise_words = make_words(120, seed * 7 + 8, 3)
        self._w_desc = zipf_weights(len(self.descriptors))
        self._w_title = zipf_weights(len(self.title_words))
        self._w_brand = zipf_weights(len(self.brands), alpha=0.8)
        # the S catalog's own wording: one fixed synonym per content word
        # (char-disjoint by construction — fresh pseudo-words)
        content = self.categories + self.descriptors + self.title_words
        alts = make_words(len(content), seed * 7 + 9, 4)
        self.synonyms = dict(zip(content, alts))

    def sample_brand(self, rng) -> str:
        return self.brands[rng.choice(len(self.brands), p=self._w_brand)]

    def sample_descriptors(self, rng, k: int) -> list[str]:
        idx = rng.choice(len(self.descriptors), size=k, replace=False, p=self._w_desc)
        return [self.descriptors[i] for i in idx]

    def sample_title_words(self, rng, k: int) -> list[str]:
        idx = rng.choice(len(self.title_words), size=k, replace=True, p=self._w_title)
        return [self.title_words[i] for i in idx]

    def model_code(self, rng) -> str:
        """Product model code like ``kx431`` — the high-signal token."""
        letters = "".join(
            chr(ord("a") + rng.integers(26)) for _ in range(int(rng.integers(1, 4)))
        )
        digits = "".join(str(rng.integers(10)) for _ in range(int(rng.integers(2, 5))))
        return letters + digits

    def author(self, rng) -> str:
        return (
            self.first_names[rng.integers(len(self.first_names))]
            + " "
            + self.last_names[rng.integers(len(self.last_names))]
        )
