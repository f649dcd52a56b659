"""Frank-Wolfe (SEQ-kClist++): feasibility invariants and convergence."""
import numpy as np
import pytest

from repro import synth_data as sd
from repro.core.fw import fw_local
from repro.flow.networks import compact_numbers_exact
from repro.graphs.local import local_from_pandas


@pytest.fixture(scope="module")
def team():
    pdf = sd.team_graph_pd(n=60, n_teams=10, team_size=(3, 5), seed=51)
    return local_from_pandas(pdf).with_cliques(3)


@pytest.mark.parametrize("T", [1, 5, 10])
def test_fw_local_feasibility(team, T):
    lg = team
    alpha, r = fw_local(lg.instances, T)
    # each instance distributes exactly one unit of weight, nonnegatively
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
    assert (alpha >= -1e-15).all()
    # r equals the received sums
    ref = {v: 0.0 for v in r}
    for i, inst in enumerate(lg.instances):
        for j, v in enumerate(inst):
            ref[v] += alpha[i, j]
    for v in r:
        assert r[v] == pytest.approx(ref[v], abs=1e-9)


def test_fw_local_total_mass(team):
    lg = team
    _alpha, r = fw_local(lg.instances, 8)
    assert sum(r.values()) == pytest.approx(len(lg.instances), abs=1e-9)


def test_fw_local_converges_to_compact_numbers():
    # two disjoint cliques: phi is piecewise constant and FW finds it fast
    import pandas as pd

    pdf = pd.concat([sd.clique_pd([0, 1, 2, 3, 4]), sd.clique_pd([10, 11, 12])])
    lg = local_from_pandas(pdf).with_cliques(2)
    _alpha, r = fw_local(lg.instances, 200)
    phi = compact_numbers_exact(lg.vertices, lg.instances)
    for v in lg.vertices:
        assert r[v] == pytest.approx(float(phi[v]), abs=0.1)


def test_fw_empty_instances():
    alpha, r = fw_local([], 5)
    assert alpha.size == 0 and r == {}
