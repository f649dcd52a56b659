"""Distributed h-clique enumeration (kClist-style) on DataFrames.

Vertices are totally ordered by ``(degree, id)``; each undirected edge is
oriented from its lower- to higher-ranked endpoint, giving a DAG whose
out-degrees are bounded. An h-clique then corresponds to exactly one
rank-increasing chain, so expanding (h-1)-chains by the out-neighbors of
their last vertex — and checking adjacency to all earlier members with
(h-2) additional joins — enumerates every h-clique exactly once. This is
the DataFrame embedding of the kClist enumeration the paper builds on.

Instances are returned in long format ``(iid, v)``: ``p`` rows per
instance, with deterministic instance ids (dense row numbers over the
sorted member tuple — never ``monotonically_increasing_id``).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from .edgelist import degrees


def oriented_edges(edges: DataFrame) -> DataFrame:
    """Orient canonical edges low-rank -> high-rank by (degree, id).

    Output columns ``(a, b)`` with rank(a) < rank(b).
    """
    deg = degrees(edges)
    e = (
        edges.join(deg.withColumnRenamed("v", "src").withColumnRenamed("deg", "dsrc"), "src")
        .join(deg.withColumnRenamed("v", "dst").withColumnRenamed("deg", "ddst"), "dst")
    )
    fwd = (F.col("dsrc") < F.col("ddst")) | (
        (F.col("dsrc") == F.col("ddst")) & (F.col("src") < F.col("dst"))
    )
    return e.select(
        F.when(fwd, F.col("src")).otherwise(F.col("dst")).alias("a"),
        F.when(fwd, F.col("dst")).otherwise(F.col("src")).alias("b"),
    )


def clique_wide(edges: DataFrame, h: int) -> DataFrame:
    """All h-cliques as a wide DataFrame ``v1..vh`` sorted by vertex id."""
    if h < 2:
        raise ValueError("h >= 2 required (h=2 cliques are edges)")
    d = oriented_edges(edges).localCheckpoint(eager=True)
    cur = d.select(F.col("a").alias("m1"), F.col("b").alias("m2"))
    for i in range(2, h):
        ext = d.select(F.col("a").alias(f"m{i}"), F.col("b").alias(f"m{i+1}"))
        cur = cur.join(ext, f"m{i}")
        for j in range(1, i):
            chk = d.select(F.col("a").alias(f"m{j}"), F.col("b").alias(f"m{i+1}"))
            cur = cur.join(chk, [f"m{j}", f"m{i+1}"], "semi")
    # canonicalize member order by vertex id (rank order is enumeration-internal)
    arr = F.array_sort(F.array(*[f"m{i}" for i in range(1, h + 1)]))
    return cur.select(*[arr[i].alias(f"v{i+1}") for i in range(h)])


def clique_instances(edges: DataFrame, h: int) -> DataFrame:
    """All h-cliques in long format ``(iid, v)`` with dense deterministic ids.

    For h=2 the instances are exactly the edges.
    """
    if h == 2:
        wide = edges.select(F.col("src").alias("v1"), F.col("dst").alias("v2"))
    else:
        wide = clique_wide(edges, h)
    cols = [f"v{i+1}" for i in range(h)]
    w = Window.orderBy(*cols)
    wide = wide.withColumn("iid", F.row_number().over(w) - F.lit(1))
    stacked = None
    for c in cols:
        part = wide.select("iid", F.col(c).alias("v"))
        stacked = part if stacked is None else stacked.unionByName(part)
    return stacked


def count_instances(instances: DataFrame) -> int:
    """Number of distinct instances in a long instance table."""
    row = instances.agg(F.countDistinct("iid").alias("c")).collect()[0]
    return int(row["c"])


def instances_to_local(instances: DataFrame) -> list[tuple[int, ...]]:
    """Collect a long instance table into the driver-side list-of-tuples form."""
    pdf = instances.toPandas()
    if pdf.empty:
        return []
    grouped = pdf.sort_values(["iid", "v"]).groupby("iid")["v"].apply(tuple)
    return [tuple(int(x) for x in t) for t in grouped.tolist()]
