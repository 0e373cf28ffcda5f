"""Single-mode record encoding (Eq 3) as a distributed Spark dataflow,
plus the per-dataset embedding store the AL loop reads from.

Base embeddings come from the frozen ``HashedLM`` (the pretrained-TPLM
stand-in) and are computed exactly once per dataset via ``mapInPandas``
— each executor uses its process-wide deterministic hashed encoder
(``shared_lm``), so no model state needs to be shipped. The *adapted*
single-mode embedding (what the paper gets by running the
matcher-fine-tuned transformer in single mode) is the base embedding
times the matcher's backbone matrix.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from repro.text.features import shared_lm

_ENC_SCHEMA = T.StructType(
    [
        T.StructField("rid", T.StringType()),
        T.StructField("emb", T.ArrayType(T.DoubleType())),
    ]
)


def encode_records(spark_df: DataFrame, d: int, text_col: str = "text") -> DataFrame:
    """DataFrame(rid, text, ...) → DataFrame(rid, emb) via mapInPandas."""

    def part(batches):
        lm = shared_lm(d)
        for pdf in batches:
            if len(pdf) == 0:
                continue
            embs = lm.encode_batch(pdf[text_col].tolist())
            yield pd.DataFrame({"rid": pdf["rid"].values, "emb": list(embs)})

    return spark_df.mapInPandas(part, schema=_ENC_SCHEMA)


def _collect_matrix(enc_df: DataFrame, rids_in_order: list[str], d: int) -> np.ndarray:
    """Collect an encode_records result into a (n, d) matrix aligned to
    ``rids_in_order``."""
    pdf = enc_df.toPandas()
    lut = {rid: np.asarray(e) for rid, e in zip(pdf.rid, pdf.emb)}
    out = np.zeros((len(rids_in_order), d))
    for i, rid in enumerate(rids_in_order):
        out[i] = lut[rid]
    return out


class EmbeddingStore:
    """Per-dataset cache: base embeddings of R and S + rid lookups.

    Embedding matrices are small (n x d doubles, a few MB) so they live
    on the driver; ``score_pairs`` broadcasts the store itself into its
    UDF. The *computation* of the embeddings is the distributed part.
    """

    def __init__(self, ds, d: int):
        self.d = d
        self.r_rids = ds.r_pdf.rid.tolist()
        self.s_rids = ds.s_pdf.rid.tolist()
        self.r_emb = _collect_matrix(encode_records(ds.R, d), self.r_rids, d)
        self.s_emb = _collect_matrix(encode_records(ds.S, d), self.s_rids, d)
        self.r_index = {rid: i for i, rid in enumerate(self.r_rids)}
        self.s_index = {rid: i for i, rid in enumerate(self.s_rids)}
        self.r_texts = dict(zip(ds.r_pdf.rid, ds.r_pdf.text))
        self.s_texts = dict(zip(ds.s_pdf.rid, ds.s_pdf.text))

    def pair_embs(self, pairs: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
        """(er, es) base-embedding matrices for a (rid_r, rid_s) frame."""
        er = self.r_emb[[self.r_index[r] for r in pairs.rid_r]]
        es = self.s_emb[[self.s_index[s] for s in pairs.rid_s]]
        return er, es

    def pair_texts(self, pairs: pd.DataFrame) -> tuple[list[str], list[str]]:
        return (
            [self.r_texts[r] for r in pairs.rid_r],
            [self.s_texts[s] for s in pairs.rid_s],
        )
