"""(k, psi_h)-core decomposition: heap peeling vs the definition."""
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
    core = instance_core_numbers_local(lg.vertices, lg.instances)
    _definition_check(lg, core)


def test_cores_on_clique():
    lg = local_from_pandas(sd.clique_pd(list(range(6)))).with_cliques(3)
    core = instance_core_numbers_local(lg.vertices, lg.instances)
    # every vertex of K6 is in C(5,2)=10 triangles
    assert set(core.values()) == {10}


def test_cores_zero_for_triangle_free():
    lg = local_from_pandas(sd.web_graph_pd(n=60, extra=0, seed=1)).with_cliques(3)
    core = instance_core_numbers_local(lg.vertices, lg.instances)
    assert set(core.values()) <= {0}
