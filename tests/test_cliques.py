"""Spark h-clique enumeration vs the driver reference and the DuckDB oracle."""
import pytest
from pyspark.sql import functions as F

from repro import synth_data as sd
from repro.graphs import cliques as cq
from repro.graphs import edgelist as el
from repro.graphs.local import local_from_pandas
from repro.oracle import assert_equivalent

GRAPHS = {
    "er": lambda: sd.er_graph_pd(n=50, m=220, seed=7),
    "team": lambda: sd.team_graph_pd(n=120, n_teams=25, team_size=(3, 6), seed=8),
    "planted": lambda: sd.planted_communities_pd(
        n=100, m_background=150, blocks=[(9, 0.9), (7, 0.8)], seed=9
    ),
}


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("h", [2, 3, 4, 5])
def test_cliques_vs_driver_reference(spark, gname, h):
    pdf = GRAPHS[gname]()
    lg = local_from_pandas(pdf)
    got = cq.instances_to_local(cq.clique_instances(el.edges_from_pandas(spark, pdf), h))
    if h == 2:
        ref = [tuple(e) for e in lg.edges]
    else:
        ref = list(map(tuple, lg.enumerate_cliques(h).tolist()))
    assert sorted(got) == sorted(ref)


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_triangle_count_vs_duckdb(spark, gname):
    pdf = GRAPHS[gname]()
    edges = el.edges_from_pandas(spark, pdf)
    tri = cq.clique_instances(edges, 3)
    got = tri.agg(F.countDistinct("iid").alias("n_triangles"))
    assert_equivalent(
        got,
        """SELECT count(*) AS n_triangles
           FROM e e1 JOIN e e2 ON e1.dst = e2.src
                     JOIN e e3 ON e3.src = e1.src AND e3.dst = e2.dst""",
        e=pdf,
    )


@pytest.mark.parametrize("gname", sorted(GRAPHS))
def test_triangle_degree_vs_duckdb(spark, gname):
    """Per-vertex h-clique degree deg_G(v, psi_3) against a SQL oracle."""
    pdf = GRAPHS[gname]()
    edges = el.edges_from_pandas(spark, pdf)
    got = cq.clique_instances(edges, 3).groupBy("v").agg(F.count("*").alias("deg"))
    assert_equivalent(
        got,
        """WITH t AS (
             SELECT e1.src AS a, e1.dst AS b, e2.dst AS c
             FROM e e1 JOIN e e2 ON e1.dst = e2.src
                       JOIN e e3 ON e3.src = e1.src AND e3.dst = e2.dst)
           SELECT v, count(*) AS deg FROM (
             SELECT a AS v FROM t UNION ALL SELECT b FROM t UNION ALL SELECT c FROM t
           ) GROUP BY v""",
        e=pdf,
    )


def test_four_clique_count_vs_duckdb(spark):
    pdf = GRAPHS["team"]()
    edges = el.edges_from_pandas(spark, pdf)
    got = cq.clique_instances(edges, 4).agg(F.countDistinct("iid").alias("n4"))
    assert_equivalent(
        got,
        """SELECT count(*) AS n4
           FROM e ab JOIN e ac ON ac.src = ab.src
                     JOIN e ad ON ad.src = ab.src
                     JOIN e bc ON bc.src = ab.dst AND bc.dst = ac.dst
                     JOIN e bd ON bd.src = ab.dst AND bd.dst = ad.dst
                     JOIN e cd ON cd.src = ac.dst AND cd.dst = ad.dst
           WHERE ab.dst < ac.dst AND ac.dst < ad.dst""",
        e=pdf,
    )


def test_h2_instances_are_edges(spark):
    pdf = GRAPHS["er"]()
    edges = el.edges_from_pandas(spark, pdf)
    inst = cq.clique_instances(edges, 2)
    assert cq.count_instances(inst) == edges.count()


def test_instance_long_format_shape(spark):
    pdf = GRAPHS["er"]()
    inst = cq.clique_instances(el.edges_from_pandas(spark, pdf), 3)
    per = inst.groupBy("iid").agg(F.count("*").alias("c")).select("c").distinct().collect()
    assert [r["c"] for r in per] in ([], [3])


def test_instance_ids_dense_and_deterministic(spark):
    pdf = GRAPHS["planted"]()
    edges = el.edges_from_pandas(spark, pdf)
    a = cq.instances_to_local(cq.clique_instances(edges, 3))
    b = cq.instances_to_local(cq.clique_instances(edges, 3))
    assert a == b
    n = cq.count_instances(cq.clique_instances(edges, 3))
    ids = {r["iid"] for r in cq.clique_instances(edges, 3).select("iid").distinct().collect()}
    assert ids == set(range(n))


def test_oriented_edges_is_total_order(spark):
    pdf = GRAPHS["er"]()
    edges = el.edges_from_pandas(spark, pdf)
    d = cq.oriented_edges(edges)
    assert d.count() == edges.count()
    # no pair appears in both directions
    rev = d.select(F.col("b").alias("a"), F.col("a").alias("b"))
    assert d.join(rev, ["a", "b"], "semi").count() == 0


def test_clique_wide_rejects_h1(spark):
    pdf = GRAPHS["er"]()
    with pytest.raises(ValueError):
        cq.clique_wide(el.edges_from_pandas(spark, pdf), 1)
