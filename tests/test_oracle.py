"""The DuckDB oracle itself, on generator edge lists.

Shows the oracle accepting correct results and catching a wrong result
or a column mismatch, so graph tests relying on it are trustworthy.
"""
import pytest
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.graphs import edgelist as el
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def edges(spark):
    return el.edges_from_pandas(spark, sd.er_graph_pd(n=60, m=200, seed=21))


def test_oracle_accepts_correct_aggregate(edges):
    got = edges.groupBy("src").agg(
        F.count("*").alias("n"), F.round(F.avg("dst"), 3).alias("mean_dst")
    )
    assert_equivalent(
        got,
        """SELECT src, count(*) AS n, round(avg(dst), 3) AS mean_dst
           FROM e GROUP BY src""",
        e=edges,
    )


def test_oracle_catches_wrong_result(edges):
    wrong = edges.groupBy("src").agg((F.count("*") + 1).alias("n"))
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong, "SELECT src, count(*) AS n FROM e GROUP BY src", e=edges
        )


def test_oracle_catches_column_mismatch(edges):
    got = edges.groupBy("src").agg(F.count("*").alias("wrong_name"))
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(
            got, "SELECT src, count(*) AS n FROM e GROUP BY src", e=edges
        )


def test_oracle_join_query(edges):
    deg = el.degrees(edges)
    got = (
        edges.join(deg, edges.src == deg.v)
        .groupBy("deg")
        .agg(F.count("*").alias("n"))
    )
    assert_equivalent(
        got,
        """SELECT d.deg, count(*) AS n
           FROM e JOIN d ON e.src = d.v
           GROUP BY d.deg""",
        e=edges,
        d=deg,
    )
