"""Tokenizer + HashedLM (the pretrained-encoder substitute)."""
import subprocess
import sys

import numpy as np
import pytest

from repro.text.features import (
    HashedLM,
    alignment_features,
    alignment_features_batch,
    shared_lm,
)
from repro.text.tokenize import tokenize


@pytest.mark.parametrize(
    "text,want",
    [
        ("Sony DSC-W35", ["sony", "dsc", "w35"]),
        ("<b>Hello</b> World!", ["b", "hello", "b", "world"]),
        ("", []),
        (None, []),
        ("a,b;c", ["a", "b", "c"]),
        ("UPPER lower 123", ["upper", "lower", "123"]),
        ("price: $12.99", ["price", "12", "99"]),
    ],
)
def test_tokenize(text, want):
    assert tokenize(text) == want


def test_token_vec_unit_norm():
    lm = HashedLM(64)
    for tok in ["panasonic", "ab", "x1", "a"]:
        np.testing.assert_allclose(np.linalg.norm(lm.token_vec(tok)), 1.0, rtol=1e-9)


def test_token_vec_deterministic_within_process():
    a = HashedLM(64).token_vec("panasonic")
    b = HashedLM(64).token_vec("panasonic")
    np.testing.assert_array_equal(a, b)


def test_shared_lm_is_one_instance_per_dim_with_fresh_vectors():
    """Executor UDFs share one warm encoder per dimension; sharing must
    not change a single bit of its vectors."""
    assert shared_lm(64) is shared_lm(64)
    assert shared_lm(64) is not shared_lm(32)
    assert shared_lm(32).d == 32
    fresh = HashedLM(64)
    for tok in ["panasonic", "panasonlc", "ab", "x1", "dsc-w35"]:
        np.testing.assert_array_equal(shared_lm(64).token_vec(tok), fresh.token_vec(tok))
        # second lookup comes from the shared cache
        np.testing.assert_array_equal(shared_lm(64).token_vec(tok), fresh.token_vec(tok))


def test_token_vec_deterministic_across_processes():
    """Executors must produce identical vectors (no PYTHONHASHSEED use)."""
    code = (
        "from repro.text.features import HashedLM;"
        "import numpy as np; v = HashedLM(32).token_vec('panasonic');"
        "print(repr(float(v[0])) + ',' + repr(float(v[17])))"
    )
    outs = set()
    for _ in range(2):
        r = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        outs.add(r.stdout.strip().splitlines()[-1])
    assert len(outs) == 1
    here = HashedLM(32).token_vec("panasonic")
    assert outs.pop() == f"{float(here[0])!r},{float(here[17])!r}"


def test_typo_similarity_above_random():
    """Char-3-gram sharing: a typo'd token stays close to the original
    (the robustness §2.2 attributes to TPLM subword tokenization)."""
    lm = HashedLM(128)
    a = lm.token_vec("panasonic")
    typo = lm.token_vec("panasonlc")
    other = lm.token_vec("keyboard")
    assert a @ typo > 0.25
    assert a @ typo > a @ other + 0.2


def test_distinct_words_near_orthogonal():
    lm = HashedLM(256)
    sims = []
    words = ["alpha", "brick", "candle", "dsc", "w35", "zebra"]
    for i, w1 in enumerate(words):
        for w2 in words[i + 1 :]:
            sims.append(abs(lm.token_vec(w1) @ lm.token_vec(w2)))
    assert max(sims) < 0.45


def test_record_embedding_is_token_mean():
    lm = HashedLM(64)
    e = lm.encode("sony w35")
    want = (lm.token_vec("sony") + lm.token_vec("w35")) / 2
    np.testing.assert_allclose(e, want, atol=1e-12)


def test_empty_record_embeds_to_zero():
    lm = HashedLM(64)
    np.testing.assert_array_equal(lm.encode(""), np.zeros(64))


def test_encode_batch_shape_and_consistency():
    lm = HashedLM(48)
    texts = ["a b c", "d", ""]
    m = lm.encode_batch(texts)
    assert m.shape == (3, 48)
    np.testing.assert_allclose(m[0], lm.encode("a b c"))
    assert lm.encode_batch([]).shape == (0, 48)


def test_token_matrix():
    lm = HashedLM(32)
    tm = lm.token_matrix("sony dsc w35")
    assert tm.shape == (3, 32)
    assert lm.token_matrix("").shape == (0, 32)


def test_alignment_features_identical_texts():
    lm = HashedLM(64)
    f = alignment_features(lm, "sony dsc w35", "sony dsc w35")
    np.testing.assert_allclose(f, [1.0, 1.0, 1.0, 1.0, 1.0, 1.0], atol=1e-9)


def test_alignment_features_disjoint_texts():
    lm = HashedLM(128)
    f = alignment_features(lm, "alpha brick candle", "xylophone zebra")
    assert f[3] == 0.0  # no near-exact counterpart
    assert f[4] == 0.0  # no shared tokens
    assert f[0] < 0.5 and f[1] < 0.5


def test_alignment_features_numeric_jaccard():
    lm = HashedLM(64)
    same = alignment_features(lm, "sony w35 price 100", "sony w35 100 silver")
    diff = alignment_features(lm, "sony w35 price 100", "sony w99 200 silver")
    assert same[5] == 1.0  # {w35, 100} on both sides
    assert diff[5] == 0.0  # disjoint numerals -> the sibling signal


def test_alignment_features_empty():
    lm = HashedLM(32)
    np.testing.assert_array_equal(alignment_features(lm, "", "abc"), np.zeros(6))


def test_alignment_batch_matches_single():
    lm = HashedLM(64)
    tr = ["sony w35", "apple pie"]
    ts = ["sony w35 silver", "banana pie"]
    batch = alignment_features_batch(lm, tr, ts)
    for i in range(2):
        np.testing.assert_allclose(batch[i], alignment_features(lm, tr[i], ts[i]))


def test_ngram_weight_zero_removes_subword_sharing():
    """Without its char-3-gram part, a token vector is its whole-token
    hash alone, and a typo'd token's is unrelated to the original's."""
    lm = HashedLM(128)
    a = lm._hashed_vec("tok:panasonic", {})
    typo = lm._hashed_vec("tok:panasonlc", {})
    np.testing.assert_allclose(np.linalg.norm(a), 1.0)
    assert abs(a @ typo) < 0.4  # whole-token hashes are unrelated
    assert lm.token_vec("panasonic") @ lm.token_vec("panasonlc") > abs(a @ typo) + 0.2
