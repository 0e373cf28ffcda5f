"""Synthetic multilingual (EN - pseudo-DE) parallel record dataset.

Stands in for the Hashimoto et al. structured-documentation corpus the
paper uses (§4.5): list R holds English-like sentences with optional
XML tags, list S their "German" translations, |DUPS| = |R| = |S|.

The translation is a deterministic word-level cipher into procedurally
generated pseudo-German words, EXCEPT that a fraction of tokens
(numbers, named entities — ``SHARED_FRAC``, 0.3) pass through
unchanged, exactly as numerals and proper nouns do in real parallel
corpora. Those shared tokens are what gives the *pretrained* encoder
(PairedFixed) partial recall — the cipher'd words are what the learned
blocker must align, reproducing the PairedFixed < DIAL gap of Table 3.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.data.er_synth import ERDataset, DatasetSpec
from repro.data.corruptions import Dirt
from repro.data.vocab import make_words, zipf_weights

ML_SPEC = DatasetSpec(
    name="multilingual", kind="text", n_r=100_000, n_s=100_000,
    n_dups=100_000, n_test=2000, dirt=Dirt(0, 0, 0, 0),
)

_TAGS = ["p", "li", "b", "title", "code"]
VOCAB_SIZE = 400  # English-like word types (the paper's corpus is real text)
SHARED_FRAC = 0.3  # of the vocabulary passes through untranslated


def _cipher(en_words: list[str], shared: set[str], seed: int) -> dict[str, str]:
    """Deterministic EN→pseudo-DE word mapping; shared words map to themselves."""
    de_words = make_words(len(en_words), seed + 4242, 4)
    return {w: (w if w in shared else d) for w, d in zip(en_words, de_words)}


def make_multilingual(
    spark: SparkSession,
    *,
    scale: float = 0.015,
    seed: int = 0,
) -> ERDataset:
    """Build the EN-"DE" dataset. Default scale 0.015 → 1500 pairs."""
    rng = np.random.default_rng(seed * 977 + 11)
    n = max(8, int(round(ML_SPEC.n_r * scale)))

    words = make_words(VOCAB_SIZE, seed + 31)
    # shared vocabulary: named-entity-ish words + numbers
    n_shared = int(SHARED_FRAC * VOCAB_SIZE)
    shared = set(words[:: max(1, VOCAB_SIZE // max(1, n_shared))][:n_shared])
    mapping = _cipher(words, shared, seed)
    w = zipf_weights(VOCAB_SIZE)

    r_rows, s_rows = [], []
    for i in range(n):
        length = int(rng.integers(8, 21))
        idx = rng.choice(VOCAB_SIZE, size=length, p=w)
        en = [words[j] for j in idx]
        # sprinkle numerals (always shared across languages)
        if rng.random() < 0.6:
            en.insert(int(rng.integers(len(en))), str(rng.integers(1, 5000)))
        de = [mapping.get(t, t) for t in en]
        # mild word-order divergence in the "translation"
        if len(de) > 4 and rng.random() < 0.5:
            j = int(rng.integers(len(de) - 2))
            de[j], de[j + 1] = de[j + 1], de[j]
        if rng.random() < 0.5:
            tag = _TAGS[rng.integers(len(_TAGS))]
            en_text = f"<{tag}>{' '.join(en)}</{tag}>"
            # tags are aligned in the real corpus's parallel XML
            de_text = f"<{tag}>{' '.join(de)}</{tag}>"
        else:
            en_text, de_text = " ".join(en), " ".join(de)
        r_rows.append({"rid": f"r{i}", "text": en_text, "title": " ".join(en), "grp": "", "key": ""})
        s_rows.append({"rid": f"s{i}", "text": de_text, "title": " ".join(de), "grp": "", "key": ""})

    r_pdf = pd.DataFrame(r_rows)
    s_pdf = pd.DataFrame(s_rows).sample(frac=1.0, random_state=seed).reset_index(drop=True)
    dups_pdf = pd.DataFrame(
        {"rid_r": [f"r{i}" for i in range(n)], "rid_s": [f"s{i}" for i in range(n)]}
    )

    # Test positives are held out; seed/test construction via the
    # pretrained-index probe happens in the experiment harness (§4.5).
    n_test_pos = max(2, min(int(0.25 * ML_SPEC.n_test * scale / 0.015), n // 4))
    perm = rng.permutation(n)
    test_pos = dups_pdf.iloc[perm[:n_test_pos]]
    seed_pos = dups_pdf.iloc[perm[n_test_pos:]].reset_index(drop=True)

    return ERDataset(
        name="multilingual",
        spec=ML_SPEC,
        scale=scale,
        R=spark.createDataFrame(r_pdf),
        S=spark.createDataFrame(s_pdf),
        test=spark.createDataFrame(test_pos.assign(label=1)),
        r_pdf=r_pdf,
        s_pdf=s_pdf,
        dups_pdf=dups_pdf,
        test_pdf=test_pos.assign(label=1).reset_index(drop=True),
        seed_pos_pdf=seed_pos,
        seed_neg_pdf=pd.DataFrame(columns=["rid_r", "rid_s"]),
    )
