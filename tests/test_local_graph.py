"""LocalGraph: the driver-side mirror's own invariants."""
import random
from fractions import Fraction
from itertools import combinations

import numpy as np

import pytest

from repro import synth_data as sd
from repro.graphs.local import LocalGraph, local_from_pandas


@pytest.fixture(scope="module")
def lg():
    return local_from_pandas(sd.er_graph_pd(n=30, m=90, seed=41))


def test_canonicalization():
    g = LocalGraph(edges=[(2, 1), (1, 2), (3, 3), (1, 4)])
    assert g.edges == [(1, 2), (1, 4)]


def test_enumerate_cliques_vs_bruteforce(lg):
    for h in (3, 4):
        ref = {
            tuple(sorted(c))
            for c in combinations(lg.vertices, h)
            if all(lg.has_edge(a, b) for a, b in combinations(c, 2))
        }
        assert set(map(tuple, lg.enumerate_cliques(h).tolist())) == ref


def _messy_graph(rng):
    """Sparse, partly negative ids; duplicate, reversed and self-loop
    edges; n_hint isolated vertices 0..n_hint-1 (some also in edges)."""
    ids = rng.sample(range(-40, 400, 3), rng.randint(2, 14))
    edges = [
        (a, b) if rng.random() < 0.5 else (b, a)
        for a, b in combinations(ids, 2)
        if rng.random() < rng.choice([0.3, 0.6, 0.9])
    ]
    edges += [rng.choice(edges) for _ in range(len(edges) // 3)] if edges else []
    edges += [(v, v) for v in rng.sample(ids, 2)]
    rng.shuffle(edges)
    return LocalGraph(n_hint=rng.randint(0, 5), edges=edges)


@pytest.mark.parametrize("h", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("chunk", [None, 3])
def test_enumerate_cliques_vs_combinations(h, chunk, monkeypatch):
    if chunk:  # expand a few candidates per batch, so every level splits
        monkeypatch.setattr("repro.graphs.local._CHUNK", chunk)
    rng = random.Random(h)
    for _ in range(30):
        g = _messy_graph(rng)
        ref = sorted(
            c for c in combinations(g.vertices, h)
            if all(g.has_edge(a, b) for a, b in combinations(c, 2))
        )
        got = g.enumerate_cliques(h)
        assert got.shape == (len(ref), h)
        assert sorted(map(tuple, got.tolist())) == ref
        attached = g.with_cliques(h)
        assert sorted(attached.instances) == ref
        assert attached.edges is g.edges and attached.adj is g.adj


def test_instance_arrays_match_tuple_views(lg):
    g = lg.with_cliques(3)
    assert g.inst.dtype == np.int32
    assert [tuple(g.ids[row].tolist()) for row in g.inst] == g.instances
    for v in g.vertices:
        at = g.pos[v]
        assert g.inc_idx[g.inc_ptr[at] : g.inc_ptr[at + 1]].tolist() == g.inc[v]
    assert list(zip(g.ids[g.eu].tolist(), g.ids[g.ev].tolist())) == g.edges


def test_rejects_instance_outside_graph():
    with pytest.raises(ValueError):
        LocalGraph(edges=[(0, 1), (1, 2)], instances=[(0, 1, 7)], p=3)


def test_instance_count_and_density(lg):
    g = lg.with_cliques(3)
    s = set(list(g.vertices)[:12])
    ref = sum(1 for t in g.instances if s.issuperset(t))
    assert g.instance_count(s) == ref
    assert g.density(s) == ref / len(s)


def test_components_partition(lg):
    comps = lg.components()
    assert sorted(v for c in comps for v in c) == sorted(lg.vertices)
    flat = [v for c in comps for v in c]
    assert len(flat) == len(set(flat))


def test_components_no_cross_edges(lg):
    comps = lg.components()
    cid = {v: i for i, c in enumerate(comps) for v in c}
    for u, v in lg.edges:
        assert cid[u] == cid[v]


def test_induced_subgraph(lg):
    g = lg.with_cliques(3)
    s = set(list(g.vertices)[:15])
    sub = g.induced(s)
    assert all(u in s and v in s for u, v in sub.edges)
    assert sorted(sub.instances) == sorted(g.instances_within(s))


def test_edge_density_of_clique():
    g = local_from_pandas(sd.clique_pd(list(range(5))))
    assert g.edge_density(set(range(5))) == 1.0


def test_diameter_path():
    g = LocalGraph(edges=[(0, 1), (1, 2), (2, 3)])
    assert g.diameter({0, 1, 2, 3}) == 3
    assert g.diameter({0, 1}) == 1


def test_clustering_triangle_plus_pendant():
    g = LocalGraph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
    assert g.clustering(0) == 1.0
    assert g.clustering(2) == pytest.approx(1 / 3)
    assert g.clustering(3) == 0.0


def test_density_empty_set(lg):
    assert lg.with_cliques(3).density(set()) == 0.0


def test_touching_incidence(lg):
    g = lg.with_cliques(3)
    if g.instances:
        v = g.instances[0][0]
        assert all(v in g.instances[i] for i in g.inc[v])


@pytest.mark.parametrize("seed", range(5))
def test_rows_within_random_masks(lg, seed):
    g = lg.with_cliques(3)
    rng = np.random.default_rng(seed)
    for frac in (0.0, 0.3, 0.7, 1.0):
        mask = rng.random(g.n) < frac
        assert g.rows_within(mask).tolist() == np.flatnonzero(mask[g.inst].all(1)).tolist()
