"""IPPV end-to-end exactness: the pipeline's headline guarantees.

The paper claims IPPV is *exact* (Theorem 7). These tests diff the whole
pipeline against the brute-force Definition-2 oracle on randomized tiny
graphs, against the flow-exact reference on medium graphs, and exercise
the top-k guard, the fast/basic verifier equivalence, and the Spark
entry points (enumerate on Spark, then the driver pipeline).
"""
import random
from fractions import Fraction
from math import comb

import pytest

from repro import synth_data as sd
from repro.baselines.flow_exact import flow_exact_lhcds
from repro.core.bruteforce import brute_lhcds
from repro.core.ippv import ippv, ippv_instances, ippv_local
from repro.graphs import edgelist as el
from repro.graphs.local import LocalGraph, local_from_pandas


def _random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 10)
    p = rng.uniform(0.25, 0.75)
    return LocalGraph(
        n_hint=n,
        edges=[(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p],
    )


def _key(results):
    return sorted(((tuple(sorted(r.vertices)), r.density) for r in results))


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("h", [2, 3, 4])
@pytest.mark.parametrize("fast", [True, False])
def test_ippv_exact_vs_bruteforce(seed, h, fast):
    lg = _random_graph(seed).with_cliques(h)
    ref = sorted(((tuple(sorted(S)), d) for S, d in brute_lhcds(lg) if d > 0))
    got = _key(ippv_local(lg, k=None, fast_verify=fast))
    assert got == ref


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_topk_guard_is_exact(seed, k):
    lg = _random_graph(seed + 100).with_cliques(3)
    full = ippv_local(lg, k=None)
    topk = ippv_local(lg, k=k)
    assert [(r.vertices, r.density) for r in topk] == [(r.vertices, r.density) for r in full[:k]]


def _tied_cliques_graph():
    """Seven K_6 (h=3 density 10/3 each) and two sparser blocks, all apart
    from each other and hung on a sparse background."""
    pdf = sd.planted_communities_pd(
        n=160, m_background=180, blocks=[(6, 1.0)] * 7 + [(9, 0.5), (12, 0.4)], seed=5
    )
    return local_from_pandas(pdf).with_cliques(3)


@pytest.mark.parametrize("k", [3, 5])
def test_topk_ties_match_flow_exact(k):
    """k cuts a seven-way tie: IPPV must return the canonical top-k, the
    first k LhCDS by (-density, sorted vertices), as the reference does."""
    lg = _tied_cliques_graph()
    ref = flow_exact_lhcds(lg, k=None)
    assert [r.density for r in ref[:7]] == [Fraction(10, 3)] * 7
    want = [(r.vertices, r.density) for r in ref[:k]]
    assert [(r.vertices, r.density) for r in ippv_local(lg, k=k)] == want
    assert [(r.vertices, r.density) for r in flow_exact_lhcds(lg, k=k)] == want


def test_topk_verifies_order_k_candidates():
    """Forty near-tied dense blocks: best-first order with per-candidate
    caps verifies O(k) candidates, not every block of the stable group.

    How many candidates are verified depends on how far the T-pass caps
    overshoot the blocks' densities: here T = 50 verifies 8 of the 40
    blocks, the default T = 10 (caps about 15% high at h = 3) 23, and a
    depth-first loop all 40 at any T.
    """
    pdf = sd.planted_communities_pd(n=1200, m_background=1500, blocks=[(18, 0.9)] * 40, seed=7)
    lg = local_from_pandas(pdf).with_cliques(3)
    k = 5
    st = {}
    got = ippv_local(lg, k=k, T=50, stats=st)
    assert st["verify_fast"] <= 3 * k
    full = ippv_local(lg, k=None, T=50)
    assert len(full) == 40
    assert [(r.vertices, r.density) for r in got] == [(r.vertices, r.density) for r in full[:k]]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("h,q", [(2, 4), (3, 5), (3, 7), (4, 6)])
def test_disjoint_clique_adds_one_lhcds(seed, h, q):
    """Adding a K_q apart from the graph adds exactly one LhCDS, the K_q
    itself, of density C(q, h)/q, and leaves the others unchanged."""
    base = _random_graph(seed + 300)
    fresh = range(base.n, base.n + q)
    lg = LocalGraph(
        edges=base.edges + [(u, v) for u in fresh for v in fresh if u < v]
    ).with_cliques(h)
    before = _key(ippv_local(base.with_cliques(h), k=None))
    after = _key(ippv_local(lg, k=None))
    assert after == sorted(before + [(tuple(fresh), Fraction(comb(q, h), q))])


@pytest.mark.parametrize("name,h", [("HA-tiny", 3), ("GQ-tiny", 3), ("GQ-tiny", 4)])
def test_ippv_vs_flow_exact_on_suite(name, h):
    from repro.experiments import load_local

    lg = load_local(name, h)
    assert _key(ippv_local(lg, k=None)) == _key(flow_exact_lhcds(lg, k=None))


def test_results_are_disjoint_and_sorted():
    from repro.experiments import load_local

    lg = load_local("HA-tiny", 3)
    res = ippv_local(lg, k=None)
    seen = set()
    for r in res:
        assert not (r.vertices & seen)  # Proposition 2
        seen |= r.vertices
    dens = [r.density for r in res]
    assert dens == sorted(dens, reverse=True)


def test_results_match_density_definition():
    from repro.experiments import load_local

    lg = load_local("GQ-tiny", 3)
    for r in ippv_local(lg, k=5):
        assert r.density == Fraction(lg.instance_count(r.vertices), r.size)
        assert lg.is_connected(r.vertices)


def test_planted_communities_recovered():
    pdf = sd.planted_communities_pd(
        n=200, m_background=300, blocks=[(12, 1.0), (10, 1.0)], seed=71
    )
    lg = local_from_pandas(pdf).with_cliques(3)
    res = ippv_local(lg, k=2)
    assert res[0].vertices == frozenset(range(12))
    assert res[1].vertices == frozenset(range(12, 22))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("h", [2, 3])
def test_spark_pipeline_matches_driver(spark, seed, h):
    import pandas as pd

    lg = _random_graph(seed + 200)
    pdf = pd.DataFrame(lg.edges, columns=["src", "dst"])
    edges = el.edges_from_pandas(spark, pdf)
    got = _key(ippv(spark, edges, h=h, k=None, T=4))
    ref = _key(ippv_local(lg.with_cliques(h), k=None, T=4))
    assert got == ref


def test_spark_pipeline_on_tiny_dataset(spark):
    from repro.experiments import load_local, load_spark

    edges = load_spark(spark, "HA-tiny")
    got = _key(ippv(spark, edges, h=3, k=3, T=5))
    ref = _key(ippv_local(load_local("HA-tiny", 3), k=3, T=5))
    assert got == ref


def test_relabelled_messy_input_keeps_topk(spark):
    """Negative sparse ids, reversed endpoints and duplicate edges change
    only the labels of the top-k, on the Spark and the driver path."""
    import pandas as pd

    pdf = sd.planted_communities_pd(
        n=120, m_background=200, blocks=[(10, 1.0), (8, 1.0), (6, 1.0)], seed=73
    )

    def relabel(v):
        return -7 * v - 3

    # v -> -7v-3 reverses the order, so every src > dst after relabelling
    messy = pd.DataFrame({"src": relabel(pdf["src"]), "dst": relabel(pdf["dst"])})
    dups = messy.head(20).rename(columns={"src": "dst", "dst": "src"})
    messy = pd.concat([messy, dups], ignore_index=True)

    base = ippv_local(local_from_pandas(pdf).with_cliques(3), k=3)
    dens = [r.density for r in base]
    assert len(base) == 3 and dens == sorted(set(dens), reverse=True)  # no ties
    want = [(frozenset(map(relabel, r.vertices)), r.density) for r in base]
    for res in (
        ippv_local(local_from_pandas(messy).with_cliques(3), k=3),
        ippv(spark, el.edges_from_pandas(spark, messy), h=3, k=3),
    ):
        assert [(r.vertices, r.density) for r in res] == want


def test_stats_are_populated():
    from repro.experiments import load_local

    st = {}
    ippv_local(load_local("HA-tiny", 3), k=3, stats=st)
    assert st["t_bounds"] >= 0 and "t_verify" in st and "t_propose" in st


def test_clique_free_graph_returns_empty():
    lg = LocalGraph(edges=[(0, 1)], instances=[], p=3)
    assert ippv_local(lg, k=5) == []


@pytest.mark.parametrize("k", [0, -1])
def test_k_below_one_rejected(spark, k):
    lg = LocalGraph(edges=[(0, 1), (1, 2), (0, 2)]).with_cliques(3)
    edges = spark.createDataFrame(lg.edges, "src long, dst long")
    instances = spark.createDataFrame([(0, v) for v in range(3)], "iid long, v long")
    for run in (
        lambda: ippv_local(lg, k=k),
        lambda: flow_exact_lhcds(lg, k=k),
        lambda: ippv(spark, edges, h=3, k=k),
        lambda: ippv_instances(spark, edges, instances, p=3, k=k),
    ):
        with pytest.raises(ValueError):
            run()


@pytest.mark.parametrize("h", [1, 0, -1])
def test_h_below_two_rejected(h):
    lg = LocalGraph(edges=[(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError):
        lg.with_cliques(h)
    with pytest.raises(ValueError):
        lg.enumerate_cliques(h)
