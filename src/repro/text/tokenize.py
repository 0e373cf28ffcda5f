"""Word tokenizer shared by the encoder, the Rules blocker and the
JedAI-style pipelines, so "token" means the same thing system-wide, and
the token-set Jaccard of the matcher's and the forest's pair features."""
from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase word+number tokens; punctuation/tags are separators.

    ``<b>Sony DSC-W35, 7.2MP</b>`` → ``['b','sony','dsc','w35','7','2mp','b']``
    — deliberately crude, like the WordPiece-ish behaviour of lowercased
    TPLM tokenizers on product strings.
    """
    if text is None:
        return []
    return _TOKEN_RE.findall(str(text).lower())


def jaccard(a: set | frozenset, b: set | frozenset) -> float:
    """|a ∩ b| / |a ∪ b|; 0 when either set is empty."""
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)
