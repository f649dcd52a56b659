"""(k, psi_h)-core decomposition: level-batched peeling vs the definition
and vs the heap peeling it replaced."""
import heapq
import random

import numpy as np
import pytest

from repro import synth_data as sd
from repro.graphs.cores import instance_core_numbers_local
from repro.graphs.local import local_from_pandas

GRAPHS = {
    "er": lambda: sd.er_graph_pd(n=45, m=180, seed=31),
    "team": lambda: sd.team_graph_pd(n=90, n_teams=18, team_size=(3, 6), seed=32),
    "planted": lambda: sd.planted_communities_pd(
        n=80, m_background=120, blocks=[(9, 0.9), (7, 1.0)], seed=33
    ),
}


def _by_id(lg, core):
    return dict(zip(lg.vertices, core.tolist()))


def _definition_check(lg, core):
    """core_G(u) is the largest k with u in the (k, psi_h)-core: verify by
    computing the maximal subgraph of min instance-degree >= k for each k."""
    ks = sorted(set(core.values()))
    for k in ks:
        # peel to the (k, psi)-core
        alive = set(lg.vertices)
        changed = True
        while changed:
            insts = [t for t in lg.instances if alive.issuperset(t)]
            deg = {v: 0 for v in alive}
            for t in insts:
                for v in t:
                    deg[v] += 1
            drop = {v for v in alive if deg[v] < k}
            alive -= drop
            changed = bool(drop)
        for v in lg.vertices:
            if core.get(v, 0) >= k:
                assert v in alive, (k, v)
            # a vertex outside the (k, psi)-core must have core < k
        for v in alive:
            assert core.get(v, 0) >= k


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("h", [2, 3])
def test_local_cores_match_definition(gname, h):
    lg = local_from_pandas(GRAPHS[gname]()).with_cliques(h)
    core = _by_id(lg, instance_core_numbers_local(lg.n, lg.inst))
    _definition_check(lg, core)


def test_cores_on_clique():
    lg = local_from_pandas(sd.clique_pd(list(range(6)))).with_cliques(3)
    core = _by_id(lg, instance_core_numbers_local(lg.n, lg.inst))
    # every vertex of K6 is in C(5,2)=10 triangles
    assert set(core.values()) == {10}


def test_cores_zero_for_triangle_free():
    lg = local_from_pandas(sd.web_graph_pd(n=60, extra=0, seed=1)).with_cliques(3)
    core = _by_id(lg, instance_core_numbers_local(lg.n, lg.inst))
    assert set(core.values()) <= {0}


def _heap_core_numbers(vertices, instances):
    """Reference: min-heap peeling, one vertex at a time."""
    inc = {v: [] for v in vertices}
    for i, inst in enumerate(instances):
        for v in inst:
            inc[v].append(i)
    deg = {v: len(inc[v]) for v in vertices}
    dead_inst = [False] * len(instances)
    removed = set()
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    core = {}
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in removed or d != deg[v]:
            continue
        removed.add(v)
        k = max(k, d)
        core[v] = k
        for i in inc[v]:
            if dead_inst[i]:
                continue
            dead_inst[i] = True
            for w in instances[i]:
                if w not in removed:
                    deg[w] -= 1
                    heapq.heappush(heap, (deg[w], w))
    return core


def _random_hypergraph(rng, p):
    """n vertices (some isolated), 0, 1 or many distinct p-sets."""
    n = rng.randint(p, 30)
    m = rng.choice([0, 1, rng.randint(2, 80)])
    rows = {tuple(sorted(rng.sample(range(n), p))) for _ in range(m)}
    return n, np.array(sorted(rows), dtype=np.int32).reshape(len(rows), p)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
def test_batched_peeling_matches_heap_peeling(p):
    rng = random.Random(p)
    for _ in range(50):
        n, inst = _random_hypergraph(rng, p)
        got = instance_core_numbers_local(n, inst)
        ref = _heap_core_numbers(list(range(n)), [tuple(r) for r in inst.tolist()])
        assert got.tolist() == [ref[v] for v in range(n)], inst.tolist()


def test_cores_single_instance_and_none():
    assert instance_core_numbers_local(4, np.array([[0, 2, 3]])).tolist() == [1, 0, 1, 1]
    assert instance_core_numbers_local(3, np.zeros((0, 3), dtype=np.int32)).tolist() == [0, 0, 0]
