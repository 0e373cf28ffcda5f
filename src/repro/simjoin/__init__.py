"""Similarity-join / blocking substrate (Spark dataflows).

Provides the non-learning machinery the paper compares against:
token blocking, the per-dataset hand-crafted Rules blocker, meta-
blocking (CBS weighting + weighted node pruning), and the two
JedAI-style end-to-end pipelines (§4.3).
"""
from repro.simjoin.tokens import explode_tokens, shared_token_pairs, jaccard_pairs  # noqa: F401
from repro.simjoin.rules import rules_cand  # noqa: F401
