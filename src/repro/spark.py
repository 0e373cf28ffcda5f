"""Lifetime of the broadcasts a lazy DataFrame reads.

A distributed path (``knn_join``, ``score_pairs``, ``score_forest``)
broadcasts its driver-side inputs and returns a lazy frame whose plan
reads them. PySpark keeps every broadcast pickled in a file under the
context's temp directory until ``destroy()``, so the frame carries its
broadcasts and whoever drops the frame releases them with it.
"""
from __future__ import annotations

from pyspark import Broadcast
from pyspark.sql import DataFrame


def with_broadcasts(df: DataFrame, *bs: Broadcast) -> DataFrame:
    """Tie ``bs`` to ``df``: ``release(df)`` destroys them. A frame built
    on ``df`` does not inherit them; hand them on with
    ``with_broadcasts(new, *broadcasts(df))``."""
    df.__dict__["_broadcasts"] = broadcasts(df) + bs
    return df


def broadcasts(df: DataFrame) -> tuple[Broadcast, ...]:
    """The broadcasts tied to ``df`` and not yet released."""
    return df.__dict__.get("_broadcasts", ())


def release(df: DataFrame) -> None:
    """Unpersist ``df`` and destroy its broadcasts.

    Call it only when no job will run ``df``, or a frame built on it,
    again: a cached block that is evicted and recomputed needs them.
    """
    df.unpersist()
    for b in df.__dict__.pop("_broadcasts", ()):
        b.destroy()
