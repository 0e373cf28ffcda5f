"""Token blocking / Rules / meta-blocking / JedAI pipelines, with
DuckDB-oracle checks on every relational result."""
import inspect
from types import SimpleNamespace

import duckdb
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.evaluate import _prf
from repro.oracle import assert_equivalent
from repro.simjoin.jedai import schema_agnostic, schema_based
from repro.simjoin.metablock import blocking_graph, weighted_node_pruning
from repro.simjoin.rules import rules_cand
from repro.simjoin.tokens import explode_tokens, jaccard_pairs, shared_token_pairs
from repro.spark import release
from repro.text.tokenize import tokenize


@pytest.fixture(scope="module")
def toy(spark):
    r = pd.DataFrame(
        {
            "rid": ["r0", "r1", "r2"],
            "title": ["sony camera w35", "canon printer", "sony tv"],
            "text": ["sony camera w35 100", "canon printer 50", "sony tv 900"],
            "grp": ["sony", "canon", "sony"],
            "key": ["w35", "", ""],
        }
    )
    s = pd.DataFrame(
        {
            "rid": ["s0", "s1"],
            "title": ["sony w35 camera silver", "printer canon ink"],
            "text": ["sony w35 camera silver", "printer canon ink"],
            "grp": ["sony", "canon"],
            "key": ["w35", ""],
        }
    )
    return spark.createDataFrame(r), spark.createDataFrame(s), r, s


def test_explode_tokens_matches_python_tokenizer(spark, toy):
    rdf, _, r, _ = toy
    got = explode_tokens(rdf, "title").toPandas()
    want = {
        (row.rid, t) for row in r.itertuples() for t in set(tokenize(row.title))
    }
    assert set(zip(got.id, got.token)) == want


def test_explode_tokens_oracle(spark, toy):
    rdf, _, r, _ = toy
    got = explode_tokens(rdf, "title")
    # DuckDB equivalent: unnest over regexp-split tokens, distinct
    assert_equivalent(
        got,
        """
        SELECT DISTINCT rid AS id, t.token AS token
        FROM r, unnest(string_split(regexp_replace(lower(title), '[^a-z0-9]+', ' ', 'g'), ' ')) AS t(token)
        WHERE t.token <> ''
        """,
        r=r,
    )


def test_shared_token_pairs_counts(spark, toy):
    rdf, sdf, *_ = toy
    got = shared_token_pairs(rdf, sdf, "title").toPandas()
    lut = {(p.rid_r, p.rid_s): p.shared for p in got.itertuples()}
    assert lut[("r0", "s0")] == 3  # sony camera w35
    assert lut[("r2", "s0")] == 1  # sony
    assert lut[("r1", "s1")] == 2  # canon printer
    assert ("r1", "s0") not in lut


def test_shared_token_pairs_oracle(spark, toy):
    rdf, sdf, r, s = toy
    got = shared_token_pairs(rdf, sdf, "title")
    assert_equivalent(
        got,
        """
        WITH rt AS (SELECT DISTINCT rid, t.token FROM r,
              unnest(string_split(regexp_replace(lower(title), '[^a-z0-9]+', ' ', 'g'), ' ')) t(token)
              WHERE t.token <> ''),
             st AS (SELECT DISTINCT rid, t.token FROM s,
              unnest(string_split(regexp_replace(lower(title), '[^a-z0-9]+', ' ', 'g'), ' ')) t(token)
              WHERE t.token <> '')
        SELECT rt.rid AS rid_r, st.rid AS rid_s, count(*) AS shared
        FROM rt JOIN st USING (token) GROUP BY 1, 2
        """,
        r=r,
        s=s,
    )


def test_jaccard_pairs_values(spark, toy):
    rdf, sdf, *_ = toy
    got = jaccard_pairs(rdf, sdf, "title").toPandas()
    lut = {(p.rid_r, p.rid_s): p.jaccard for p in got.itertuples()}
    assert abs(lut[("r0", "s0")] - 3 / 4) < 1e-9  # |∪|=4
    assert abs(lut[("r1", "s1")] - 2 / 3) < 1e-9


def test_jaccard_bounds(spark, wa):
    got = jaccard_pairs(wa.R, wa.S, "title").agg(
        F.min("jaccard").alias("lo"), F.max("jaccard").alias("hi")
    ).collect()[0]
    assert 0 < got.lo <= got.hi <= 1.0


# -- Rules ------------------------------------------------------------------

def test_rules_cand_schema_and_dedup(spark, wa):
    rc = rules_cand(spark, wa).toPandas()
    assert list(rc.columns) == ["rid_r", "rid_s", "dist"]
    assert not rc.duplicated(["rid_r", "rid_s"]).any()


def _shared_sql(col: str) -> str:
    """DuckDB: (rid_r, rid_s, n) with n the distinct tokens of ``col``
    that the pair shares, for every pair sharing one."""
    def tokens(side):
        return f"""SELECT DISTINCT rid, t.token FROM {side},
              unnest(string_split(regexp_replace(lower({col}), '[^a-z0-9]+', ' ', 'g'), ' ')) t(token)
              WHERE t.token <> ''"""
    return f"""SELECT rt.rid AS rid_r, st.rid AS rid_s, count(*) AS n
        FROM ({tokens("r")}) rt JOIN ({tokens("s")}) st USING (token) GROUP BY 1, 2"""


# each family's rule, stated relationally over r, s and the shared counts
_RULE_SQL = {
    "product": """
        SELECT r.rid AS rid_r, s.rid AS rid_s FROM r JOIN s ON r.key = s.key WHERE r.key <> ''
        UNION
        SELECT rid_r, rid_s FROM title JOIN r ON r.rid = rid_r JOIN s ON s.rid = rid_s
        WHERE n >= 2 AND r.grp = s.grp AND r.grp <> ''""",
    "citation": "SELECT rid_r, rid_s FROM title WHERE n >= 3",
    "textual": "SELECT rid_r, rid_s FROM text WHERE n >= 4",
}


@pytest.mark.parametrize(
    "source, kind",
    [("toy", "product"), ("toy", "citation"), ("toy", "textual"),
     ("walmart_amazon", "product"), ("dblp_acm", "citation"), ("abt_buy", "textual")],
)
def test_rules_cand_oracle(spark, runner, toy, source, kind):
    """The pairs each family's rule picks, and their ``dist`` (minus the
    shared title tokens), equal a DuckDB statement of the rule."""
    if source == "toy":
        sdf, r, s = toy[1], toy[2], toy[3]
        ds = SimpleNamespace(spec=SimpleNamespace(kind=kind), r_pdf=r, S=sdf)
    else:
        ds = runner.dataset(source)
        r, s = ds.r_pdf, ds.s_pdf
        assert ds.spec.kind == kind
    got = rules_cand(spark, ds)
    assert_equivalent(
        got,
        f"""WITH title AS ({_shared_sql("title")}), text AS ({_shared_sql("text")}),
             picked AS ({_RULE_SQL[kind]})
        SELECT rid_r, rid_s, -coalesce(title.n, 0)::DOUBLE AS dist
        FROM picked LEFT JOIN title USING (rid_r, rid_s)""",
        r=r,
        s=s,
    )
    assert np.signbit(got.toPandas().dist).all()  # minus a count, 0 included
    release(got)


def test_rules_key_only_pair_keeps_negative_zero(spark):
    """A product pair on key alone shares no title token: ``dist`` is -0.0."""
    cols = ["rid", "title", "text", "grp", "key"]
    r = pd.DataFrame([["r0", "alpha", "alpha", "", "k1"]], columns=cols)
    s = pd.DataFrame([["s0", "beta", "beta", "", "k1"]], columns=cols)
    ds = SimpleNamespace(spec=SimpleNamespace(kind="product"), r_pdf=r, S=spark.createDataFrame(s))
    got = rules_cand(spark, ds).toPandas()
    assert list(zip(got.rid_r, got.rid_s)) == [("r0", "s0")]
    assert got.dist[0] == 0.0 and np.signbit(got.dist[0])


def test_rules_cand_layout(spark, runner):
    """The cached Rules CAND is hash-partitioned on the pair under
    ``spark.sql.shuffle.partitions``, each partition sorted by pair:
    RF-QBC breaks vote-variance ties in the order of a round-robin split
    of this layout."""
    rc = runner.rules("abt_buy")
    n = int(spark.conf.get("spark.sql.shuffle.partitions"))
    pdf = rc.select(
        F.spark_partition_id().alias("pid"),
        F.pmod(F.hash("rid_r", "rid_s"), F.lit(n)).alias("want"),
        "rid_r",
        "rid_s",
    ).toPandas()
    assert rc.rdd.getNumPartitions() == n
    assert pdf.pid.nunique() > 1
    assert (pdf.pid == pdf.want).all()
    for _, part in pdf.groupby("pid", sort=False):
        pairs = list(zip(part.rid_r, part.rid_s))
        assert pairs == sorted(pairs)


def test_rules_cand_builds_in_few_jobs(spark, runner, count_jobs):
    """Building and caching the Rules CAND is one broadcast probe of S and
    one shuffle: at most 4 Spark jobs."""
    ds = runner.dataset("dblp_acm")
    built = []

    def build():
        built.append(rules_cand(spark, ds).cache())
        built[0].count()

    n = count_jobs(build)
    release(built[0])
    assert n <= 4


@pytest.mark.parametrize("name", ["walmart_amazon", "dblp_scholar", "abt_buy"])
def test_rules_recall_reasonable(runner, name):
    """Hand-crafted rules are high-recall but imperfect on dirty data."""
    from repro.core.evaluate import blocker_recall

    ds = runner.dataset(name)
    rec = blocker_recall(runner.rules(name), ds.dups_pdf)
    assert rec > 60.0


def test_rules_product_key_equality_included(spark, wa):
    """Every pair with equal non-empty model code must be in the rules CAND."""
    rc = rules_cand(spark, wa)
    r = wa.R.select(F.col("rid").alias("rid_r"), F.col("key").alias("key_r")).filter(
        F.col("key_r") != ""
    )
    s = wa.S.select(F.col("rid").alias("rid_s"), F.col("key").alias("key_s")).filter(
        F.col("key_s") != ""
    )
    keyed = r.join(s, F.col("key_r") == F.col("key_s")).select("rid_r", "rid_s")
    missing = keyed.join(rc, ["rid_r", "rid_s"], "left_anti").count()
    assert missing == 0


# -- meta-blocking ----------------------------------------------------------

def test_blocking_graph_cbs_oracle(spark, toy):
    rdf, sdf, r, s = toy
    got = blocking_graph(rdf, sdf, "cbs")
    assert_equivalent(
        got,
        """
        WITH rt AS (SELECT DISTINCT rid, t.token FROM r,
              unnest(string_split(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'), ' ')) t(token)
              WHERE t.token <> ''),
             st AS (SELECT DISTINCT rid, t.token FROM s,
              unnest(string_split(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g'), ' ')) t(token)
              WHERE t.token <> '')
        SELECT rt.rid AS rid_r, st.rid AS rid_s, count(*)::DOUBLE AS weight
        FROM rt JOIN st USING (token) GROUP BY 1, 2
        """,
        r=r,
        s=s,
    )


def test_arcs_weights_favor_rare_blocks(spark, toy):
    rdf, sdf, *_ = toy
    g = blocking_graph(rdf, sdf).toPandas()
    lut = {(p.rid_r, p.rid_s): p.weight for p in g.itertuples()}
    # (r0,s0) shares rare tokens (camera, w35) + sony; (r2,s0) only sony
    assert lut[("r0", "s0")] > lut[("r2", "s0")]


def test_wnp_subset_and_keeps_best(spark, toy):
    rdf, sdf, *_ = toy
    g = blocking_graph(rdf, sdf)
    pruned = weighted_node_pruning(g).toPandas()
    full = g.toPandas()
    assert len(pruned) <= len(full)
    # every S node keeps its single best edge
    best = full.sort_values("weight").groupby("rid_s").tail(1)
    kept = set(zip(pruned.rid_r, pruned.rid_s))
    for row in best.itertuples():
        assert (row.rid_r, row.rid_s) in kept


# -- JedAI-style pipelines --------------------------------------------------

@pytest.mark.parametrize("fn", [schema_based, schema_agnostic], ids=["sb", "sa"])
def test_jedai_pipeline_outputs(spark, runner, fn):
    ds = runner.dataset("dblp_acm")
    out = fn(spark, ds)
    assert set(out) >= {"precision", "recall", "f1", "threshold", "rt_seconds"}
    assert 0 <= out["f1"] <= 100
    assert out["rt_seconds"] > 0


@pytest.mark.parametrize("fn", [schema_based, schema_agnostic], ids=["sb", "sa"])
def test_jedai_metrics_oracle(spark, runner, fn):
    """The reported P/R/F1 and threshold equal a DuckDB grid search over
    the workflow's verified pairs (each step has its own oracle test)."""
    ds = runner.dataset("dblp_acm")
    if fn is schema_based:
        pairs = jaccard_pairs(ds.R, ds.S, "title")
    else:
        graph = weighted_node_pruning(blocking_graph(ds.R, ds.S))
        pairs = graph.join(jaccard_pairs(ds.R, ds.S, "text"), ["rid_r", "rid_s"])
    con = duckdb.connect()
    try:
        con.register("pairs", pairs.select("rid_r", "rid_s", "jaccard").toPandas())
        con.register("dups", ds.dups_pdf[["rid_r", "rid_s"]])
        best = None
        for t in inspect.signature(fn).parameters["thresholds"].default:
            tp, n_pred, n_gold = con.execute(
                "SELECT (SELECT count(*) FROM pairs JOIN dups USING (rid_r, rid_s)"
                f" WHERE jaccard >= {t}), (SELECT count(*) FROM pairs WHERE jaccard >= {t}),"
                " (SELECT count(*) FROM dups)"
            ).fetchone()
            m = _prf(tp, n_pred, n_gold)
            if best is None or m["f1"] > best["f1"]:
                best = {**m, "threshold": t}
    finally:
        con.close()
    got = fn(spark, ds)
    assert 0 < best["f1"] < 100
    assert got["threshold"] == best["threshold"]
    for k in ("precision", "recall", "f1"):
        assert abs(got[k] - best[k]) <= 1e-9, (k, got[k], best[k])


def test_jedai_grid_picks_best_threshold(spark, runner):
    ds = runner.dataset("dblp_acm")
    best = schema_based(spark, ds, thresholds=(0.1, 0.9))
    lo = schema_based(spark, ds, thresholds=(0.1,))
    hi = schema_based(spark, ds, thresholds=(0.9,))
    assert best["f1"] >= max(lo["f1"], hi["f1"]) - 1e-9
