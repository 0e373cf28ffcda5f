"""Synthetic versions of the paper's five ER benchmarks (Table 1).

Each generator mirrors the real benchmark along the axes the paper's
experiments exercise:

- **scale ratios** |R|, |S|, |DUPS|, |D_test| (scaled by ``scale``;
  1.0 = paper-sized),
- **schema style**: structured products (Walmart-Amazon, Amazon-Google),
  structured citations (DBLP-ACM, DBLP-Scholar), long-text product
  descriptions (Abt-Buy),
- **dirtiness**: per-dataset corruption level (DBLP-ACM nearly clean →
  everything scores ~99 F1 on it, like the paper; Abt-Buy/DBLP-Scholar
  dirty),
- **hard-negative structure**: non-duplicates share brands/categories/
  title words ("sibling" entities: same brand+category, different model
  code — the book-editions example of §2.2.1),
- **many-to-many matching** for DBLP-Scholar (~2 S copies per matched R
  record, so |DUPS| > |R|).

Records carry ``rid``, ``text`` (what the encoder consumes), plus
structured columns (``grp`` = brand/venue, ``key`` = model code, ``title``)
used only by the hand-crafted Rules blocker and the JedAI-style
baselines — DIAL itself reads nothing but ``text``.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.data.corruptions import (
    HIGH,
    LOW,
    MEDIUM,
    SCHOLAR,
    Dirt,
    add_catalog_noise,
    corrupt_tokens,
)
from repro.data.vocab import Vocab


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    kind: str  # "product" | "citation" | "textual"
    n_r: int
    n_s: int
    n_dups: int
    n_test: int
    dirt: Dirt
    s_copies: float = 1.0  # avg S records per matched R record
    # fraction of non-core entities that are near-duplicate "siblings"
    sibling_frac: float = 0.5


DATASET_SPECS: dict[str, DatasetSpec] = {
    "walmart_amazon": DatasetSpec("walmart_amazon", "product", 2554, 22074, 1154, 2049, MEDIUM),
    "amazon_google": DatasetSpec("amazon_google", "product", 1363, 3226, 1300, 2293, MEDIUM, sibling_frac=0.5),
    "dblp_acm": DatasetSpec("dblp_acm", "citation", 2616, 2294, 2224, 2473, LOW),
    "dblp_scholar": DatasetSpec("dblp_scholar", "citation", 2616, 64263, 5347, 5742, SCHOLAR, s_copies=2.05),
    "abt_buy": DatasetSpec("abt_buy", "textual", 1081, 1092, 1097, 1916, HIGH),
}


@dataclass
class ERDataset:
    """One synthetic benchmark: Spark views + driver-side pandas copies.

    The pandas copies exist because model *training* (a few hundred
    labeled pairs), the simulated labeler and evaluation run on the
    driver; every |R|x|S|-shaped computation uses the Spark DataFrames.
    DUPS exists only as ``dups_pdf``.
    """

    name: str
    spec: DatasetSpec
    scale: float
    R: DataFrame
    S: DataFrame
    test: DataFrame
    r_pdf: pd.DataFrame = field(repr=False, default=None)
    s_pdf: pd.DataFrame = field(repr=False, default=None)
    dups_pdf: pd.DataFrame = field(repr=False, default=None)
    test_pdf: pd.DataFrame = field(repr=False, default=None)
    seed_pos_pdf: pd.DataFrame = field(repr=False, default=None)
    seed_neg_pdf: pd.DataFrame = field(repr=False, default=None)

    @property
    def dup_set(self) -> set:
        return set(zip(self.dups_pdf.rid_r, self.dups_pdf.rid_s))

    def stats(self) -> dict:
        """Realised Table-1 row for this dataset."""
        n_r, n_s = len(self.r_pdf), len(self.s_pdf)
        return {
            "dataset": self.name,
            "|R|": n_r,
            "|S|": n_s,
            "|DUPS|": len(self.dups_pdf),
            "dup_ratio": len(self.dups_pdf) / (n_r * n_s),
            "|Dtest|": len(self.test_pdf),
        }


# ---------------------------------------------------------------------------
# entity model
# ---------------------------------------------------------------------------

def _product_entity(v: Vocab, rng) -> dict:
    n_desc = int(rng.integers(2, 5))
    return {
        "brand": v.sample_brand(rng),
        "category": v.categories[rng.integers(len(v.categories))],
        "model": v.model_code(rng),
        "desc": v.sample_descriptors(rng, n_desc),
        "price": round(float(rng.random() * 480 + 20), 2),
    }


def _product_sibling(e: dict, v: Vocab, rng) -> dict:
    """Same brand+category, new model code, half-overlapping descriptors
    — the near-duplicate that blocks on the same keys but is NOT a dup."""
    keep = [d for d in e["desc"] if rng.random() < 0.5]
    new = v.sample_descriptors(rng, max(1, len(e["desc"]) - len(keep)))
    return {
        "brand": e["brand"],
        "category": e["category"],
        "model": v.model_code(rng),
        "desc": keep + new,
        "price": round(e["price"] * float(0.7 + 0.6 * rng.random()), 2),
    }


def _citation_entity(v: Vocab, rng) -> dict:
    n_title = int(rng.integers(6, 13))
    n_auth = int(rng.integers(1, 4))
    return {
        "title": v.sample_title_words(rng, n_title),
        "authors": [v.author(rng) for _ in range(n_auth)],
        "venue": v.venues[rng.integers(len(v.venues))],
        "year": int(rng.integers(1990, 2021)),
    }


def _citation_sibling(e: dict, v: Vocab, rng) -> dict:
    """Shares >half the title words and the venue (same conference series,
    similar paper) but is a different paper."""
    keep = [w for w in e["title"] if rng.random() < 0.6]
    new = v.sample_title_words(rng, max(2, len(e["title"]) - len(keep)))
    return {
        "title": keep + new,
        "authors": [v.author(rng) for _ in range(int(rng.integers(1, 4)))],
        "venue": e["venue"],
        "year": int(np.clip(e["year"] + rng.integers(-3, 4), 1990, 2020)),
    }


def _damage_key(tok: str, dirt: Dirt, rng) -> str:
    """High-signal token (brand / model code) under the dirt model:
    usually intact, sometimes typo'd, sometimes missing entirely —
    this is what defeats hand-crafted blocking rules on dirty data."""
    if rng.random() >= dirt.key_damage_p:
        return tok
    from repro.data.corruptions import typo

    return typo(tok, rng) if rng.random() < 0.5 else ""


def _render_product(
    e: dict, dirt: Dirt | None, rng, textual: bool,
    noise_pool: list | None = None, synonyms: dict | None = None,
) -> dict:
    brand, model = e["brand"], e["model"]
    rest = [e["category"], *e["desc"]]
    if dirt is not None:
        brand = _damage_key(brand, dirt, rng)
        model = _damage_key(model, dirt, rng)
        rest = corrupt_tokens(rest, dirt, rng, synonyms=synonyms)
        rest = add_catalog_noise(rest, dirt, noise_pool or [], rng)
    toks = [t for t in [brand, rest[0] if rest else "", model, *rest[1:]] if t]
    title = " ".join(toks)
    price = e["price"]
    if dirt is not None and rng.random() < 0.3:
        price = round(price * float(0.97 + 0.06 * rng.random()), 2)
    if textual:
        # Abt-Buy style: one long text blob, no usable structure
        return {"text": f"{title} {price}", "title": title, "grp": "", "key": ""}
    # structured columns carry the (possibly damaged) rendered values
    return {"text": f"{title} {price}", "title": title, "grp": brand, "key": model}


def _render_citation(
    e: dict, dirt: Dirt | None, rng, scholar_style: bool,
    noise_pool: list | None = None, synonyms: dict | None = None,
) -> dict:
    title_toks = list(e["title"])
    if dirt is not None:
        title_toks = corrupt_tokens(title_toks, dirt, rng, synonyms=synonyms)
        if scholar_style:
            # Scholar-style records carry page/source boilerplate
            title_toks = add_catalog_noise(title_toks, dirt, noise_pool or [], rng)
    title = " ".join(title_toks)
    authors = e["authors"]
    if scholar_style and dirt is not None:
        # Scholar-style: abbreviate first names, sometimes drop venue
        authors = [a.split()[0][:1] + " " + a.split()[1] for a in authors]
    venue = e["venue"]
    if scholar_style and dirt is not None and rng.random() < 0.4:
        venue = ""
    text = f"{title} . {' , '.join(authors)} . {venue} {e['year']}".strip()
    return {"text": text, "title": title, "grp": venue, "key": str(e["year"])}


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

def _scaled(n: int, scale: float, lo: int = 4) -> int:
    return max(lo, int(round(n * scale)))


def make_dataset(
    spark: SparkSession, name: str, *, scale: float = 0.1, seed: int = 0
) -> ERDataset:
    """Build one synthetic benchmark as Spark DataFrames + pandas copies."""
    spec = DATASET_SPECS[name]
    rng = np.random.default_rng(seed * 1000 + zlib.crc32(name.encode()) % 997)
    v = Vocab(seed=seed)

    n_dups = _scaled(spec.n_dups, scale)
    n_core = max(2, int(round(n_dups / spec.s_copies)))
    # R (the indexed list) shrinks less than S: blocking difficulty is
    # set by how many distractors crowd each query's top-k, and scaling
    # both lists by `scale` would make k-NN trivially easy at small
    # scale. min(1, 5*scale) keeps the distractor density paper-like.
    n_r = max(n_core, _scaled(spec.n_r, min(1.0, 5 * scale)))
    n_s = max(n_dups, _scaled(spec.n_s, scale))
    n_test = _scaled(spec.n_test, scale, lo=8)

    is_prod = spec.kind in ("product", "textual")
    make_sib = _product_sibling if is_prod else _citation_sibling
    if spec.kind == "textual":
        # Abt-Buy style: long free-text descriptions
        def make_e(vv, rr):
            e = _product_entity(vv, rr)
            e["desc"] = e["desc"] + vv.sample_descriptors(rr, int(rr.integers(6, 12)))
            return e
    else:
        make_e = _product_entity if is_prod else _citation_entity

    # Core entities (matched across lists)
    core = [make_e(v, rng) for _ in range(n_core)]

    def distractors(n: int, pool: list) -> list:
        out = []
        for _ in range(n):
            if pool and rng.random() < spec.sibling_frac:
                out.append(make_sib(pool[rng.integers(len(pool))], v, rng))
            else:
                out.append(make_e(v, rng))
        return out

    r_extra = distractors(n_r - n_core, core)
    s_extra_n = n_s - n_dups
    s_extra = distractors(s_extra_n, core)

    # S-side copy counts for core entities (many-to-many for scholar)
    copies = np.ones(n_core, dtype=int)
    remaining = n_dups - n_core
    if remaining > 0:
        extra_idx = rng.choice(n_core, size=remaining, replace=True)
        np.add.at(copies, extra_idx, 1)

    def render(e, dirty: bool):
        if is_prod:
            return _render_product(
                e, spec.dirt if dirty else None, rng,
                textual=spec.kind == "textual", noise_pool=v.noise_words,
                synonyms=v.synonyms,
            )
        return _render_citation(
            e, spec.dirt if dirty else None, rng,
            scholar_style=spec.s_copies > 1, noise_pool=v.noise_words,
            synonyms=v.synonyms,
        )

    # R list: clean renders
    r_rows = []
    for i, e in enumerate(core + r_extra):
        row = render(e, dirty=False)
        row["rid"] = f"r{i}"
        r_rows.append(row)

    # S list: dirty renders; core entities first (with copies), then extras
    s_rows, dup_pairs = [], []
    sid = 0
    for i, e in enumerate(core):
        for _ in range(copies[i]):
            row = render(e, dirty=True)
            row["rid"] = f"s{sid}"
            s_rows.append(row)
            dup_pairs.append((f"r{i}", f"s{sid}"))
            sid += 1
    for e in s_extra:
        row = render(e, dirty=True)
        row["rid"] = f"s{sid}"
        s_rows.append(row)
        sid += 1

    cols = ["rid", "text", "title", "grp", "key"]
    r_pdf = pd.DataFrame(r_rows)[cols]
    s_pdf = pd.DataFrame(s_rows)[cols]
    # shuffle S so core records are not a prefix
    s_pdf = s_pdf.sample(frac=1.0, random_state=seed).reset_index(drop=True)
    dups_pdf = pd.DataFrame(dup_pairs, columns=["rid_r", "rid_s"])

    test_pdf, seed_pos, seed_neg = _make_pairs_splits(
        r_pdf, s_pdf, dups_pdf, n_test, rng
    )

    return ERDataset(
        name=name,
        spec=spec,
        scale=scale,
        R=spark.createDataFrame(r_pdf),
        S=spark.createDataFrame(s_pdf),
        test=spark.createDataFrame(test_pdf),
        r_pdf=r_pdf,
        s_pdf=s_pdf,
        dups_pdf=dups_pdf,
        test_pdf=test_pdf,
        seed_pos_pdf=seed_pos,
        seed_neg_pdf=seed_neg,
    )


def _hard_negative_pairs(
    r_pdf: pd.DataFrame, s_pdf: pd.DataFrame, dup_set: set, n: int, rng
) -> pd.DataFrame:
    """Non-duplicate pairs that share a group or >=2 title tokens — the
    kind of near-duplicates a pre-blocked benchmark's negative pairs are."""
    # index S by group and by title token
    by_grp: dict[str, list[int]] = {}
    by_tok: dict[str, list[int]] = {}
    s_titles = s_pdf.title.str.split()
    for j, (grp, toks) in enumerate(zip(s_pdf.grp, s_titles)):
        if grp:
            by_grp.setdefault(grp, []).append(j)
        for t in set(toks):
            by_tok.setdefault(t, []).append(j)

    pairs, seen = [], set()
    r_titles = r_pdf.title.str.split()
    attempts = 0
    while len(pairs) < n and attempts < n * 60:
        attempts += 1
        i = int(rng.integers(len(r_pdf)))
        grp = r_pdf.grp.iloc[i]
        cands = list(by_grp.get(grp, []))
        if not cands:
            toks = r_titles.iloc[i]
            if not toks:
                continue
            cands = by_tok.get(toks[int(rng.integers(len(toks)))], [])
        if not cands:
            continue
        j = cands[int(rng.integers(len(cands)))]
        key = (r_pdf.rid.iloc[i], s_pdf.rid.iloc[j])
        if key in dup_set or key in seen:
            continue
        seen.add(key)
        pairs.append(key)
    return pd.DataFrame(pairs, columns=["rid_r", "rid_s"])


def _make_pairs_splits(r_pdf, s_pdf, dups_pdf, n_test: int, rng):
    """D_test (labeled pairs, ~25% positive) + seed pools for AL.

    Mirrors §4.2: the seed set is sampled from the benchmark's training
    split, disjoint from D_test.
    """
    dup_set = set(zip(dups_pdf.rid_r, dups_pdf.rid_s))
    n_pos = max(2, min(int(0.25 * n_test), max(2, len(dups_pdf) // 3)))
    pos_idx = rng.permutation(len(dups_pdf))
    test_pos = dups_pdf.iloc[pos_idx[:n_pos]]
    seed_pos = dups_pdf.iloc[pos_idx[n_pos:]].reset_index(drop=True)

    n_neg = max(2, n_test - n_pos)
    negs = _hard_negative_pairs(r_pdf, s_pdf, dup_set, n_neg + n_neg, rng)
    test_neg = negs.iloc[:n_neg]
    seed_neg = negs.iloc[n_neg:].reset_index(drop=True)

    test_pdf = pd.concat(
        [test_pos.assign(label=1), test_neg.assign(label=0)], ignore_index=True
    ).sample(frac=1.0, random_state=0).reset_index(drop=True)
    return test_pdf, seed_pos.copy(), seed_neg
