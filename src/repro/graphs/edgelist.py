"""Canonical undirected edge lists as Spark DataFrames.

An undirected simple graph is represented by a DataFrame with long columns
``(src, dst)`` satisfying ``src < dst`` (one row per edge, no self-loops,
no duplicates). All public functions in the package assume and preserve
this canonical form.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def canonical_edges(edges: DataFrame) -> DataFrame:
    """Return the canonical form of an arbitrary (src, dst) edge list.

    Reorders endpoints so ``src < dst``, drops self-loops and duplicate
    edges. Input columns may be any integer type; output columns are longs.
    """
    e = edges.select(
        F.least("src", "dst").cast("long").alias("src"),
        F.greatest("src", "dst").cast("long").alias("dst"),
    )
    return e.filter(F.col("src") != F.col("dst")).distinct()


def vertices(edges: DataFrame) -> DataFrame:
    """Distinct vertex set of a canonical edge list, as a one-column DF ``v``."""
    return (
        edges.select(F.col("src").alias("v"))
        .unionByName(edges.select(F.col("dst").alias("v")))
        .distinct()
    )


def degrees(edges: DataFrame) -> DataFrame:
    """Per-vertex degree as DF ``(v, deg)``; isolated vertices never appear."""
    ends = edges.select(F.col("src").alias("v")).unionByName(
        edges.select(F.col("dst").alias("v"))
    )
    return ends.groupBy("v").agg(F.count("*").alias("deg"))


def edges_from_pandas(spark: SparkSession, pdf) -> DataFrame:
    """Create a canonical Spark edge list from a pandas DF with src/dst columns."""
    return canonical_edges(spark.createDataFrame(pdf[["src", "dst"]]))
