"""Edge-list utilities on Spark, cross-checked against the DuckDB oracle."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.graphs import edgelist as el
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def raw_pdf():
    # messy input: duplicates, reversed orientation, self-loops
    base = sd.er_graph_pd(n=40, m=120, seed=1)
    rev = base.rename(columns={"src": "dst", "dst": "src"})
    loops = pd.DataFrame({"src": [1, 2, 3], "dst": [1, 2, 3]})
    return pd.concat([base, rev, base.head(20), loops], ignore_index=True)


def test_canonical_edges(spark, raw_pdf):
    got = el.canonical_edges(spark.createDataFrame(raw_pdf))
    assert_equivalent(
        got,
        """SELECT DISTINCT least(src, dst) AS src, greatest(src, dst) AS dst
           FROM raw WHERE src <> dst""",
        raw=raw_pdf,
    )


def test_canonical_is_idempotent(spark, raw_pdf):
    once = el.canonical_edges(spark.createDataFrame(raw_pdf))
    twice = el.canonical_edges(once)
    assert sorted(map(tuple, once.collect())) == sorted(map(tuple, twice.collect()))


def test_vertices(spark, raw_pdf):
    edges = el.canonical_edges(spark.createDataFrame(raw_pdf))
    vs = {r["v"] for r in el.vertices(edges).collect()}
    proper = raw_pdf[raw_pdf.src != raw_pdf.dst]
    assert vs == set(proper.src) | set(proper.dst)


def test_degrees_vs_duckdb(spark):
    pdf = sd.er_graph_pd(n=50, m=160, seed=2)
    edges = el.edges_from_pandas(spark, pdf)
    got = el.degrees(edges)
    assert_equivalent(
        got,
        """SELECT v, count(*) AS deg FROM (
             SELECT src AS v FROM e UNION ALL SELECT dst AS v FROM e
           ) GROUP BY v""",
        e=pdf,
    )


def test_degrees_sum_is_twice_edges(spark):
    pdf = sd.team_graph_pd(n=80, n_teams=15, team_size=(3, 5), seed=5)
    edges = el.edges_from_pandas(spark, pdf)
    total = el.degrees(edges).agg(F.sum("deg").alias("s")).collect()[0]["s"]
    assert total == 2 * edges.count()
