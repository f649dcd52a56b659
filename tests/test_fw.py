"""Batch Frank-Wolfe: feasibility invariants, the pass rule and convergence."""
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
    alpha, r = fw_local(lg.inst, T)
    # each instance distributes exactly one unit of weight, nonnegatively
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
    assert (alpha >= -1e-15).all()
    # r equals the received sums
    ref = [0.0] * len(r)
    for i, inst in enumerate(lg.inst.tolist()):
        for j, v in enumerate(inst):
            ref[v] += alpha[i, j]
    for v in range(len(r)):
        assert r[v] == pytest.approx(ref[v], abs=1e-9)


def test_fw_local_total_mass(team):
    lg = team
    _alpha, r = fw_local(lg.inst, 8)
    assert r.sum() == pytest.approx(len(lg.instances), abs=1e-9)


def test_fw_local_converges_to_compact_numbers():
    # two disjoint cliques: phi is piecewise constant and FW finds it fast
    import pandas as pd

    pdf = pd.concat([sd.clique_pd([0, 1, 2, 3, 4]), sd.clique_pd([10, 11, 12])])
    lg = local_from_pandas(pdf).with_cliques(2)
    _alpha, r = fw_local(lg.inst, 200)
    phi = compact_numbers_exact(lg.vertices, lg.instances)
    for v in lg.vertices:
        assert r[lg.pos[v]] == pytest.approx(float(phi[v]), abs=0.1)


def test_fw_empty_instances():
    alpha, r = fw_local(np.zeros((0, 3), dtype=np.int32), 5)
    assert alpha.size == 0 and r.size == 0


def test_fw_two_passes_by_hand():
    """Each pass reads r from the previous iterate, gives step gamma =
    1/(t+1) to each row's least-r member (ties: the smaller index) and
    scales the rest by 1 - gamma."""
    inst = np.array([[0, 1], [0, 2], [1, 2], [2, 3]])
    # start: r = deg/2 = [1, 1, 1.5, 0.5]
    # t=1, gamma=1/2: picks 0 (tie 0/1), 0, 1, 3
    alpha, r = fw_local(inst, 1)
    np.testing.assert_allclose(alpha, [[0.75, 0.25], [0.75, 0.25], [0.75, 0.25], [0.25, 0.75]])
    np.testing.assert_allclose(r, [1.5, 1.0, 0.75, 0.75])
    # t=2, gamma=1/3: picks 1, 2, 2, 2 (tie 2/3)
    alpha, r = fw_local(inst, 2)
    np.testing.assert_allclose(alpha, np.full((4, 2), 0.5))
    np.testing.assert_allclose(r, [1.0, 1.0, 1.5, 0.5])


def _fw_reference(inst, T):
    """The pass rule written with (row, column) indexing."""
    m, p = inst.shape
    n = int(inst.max()) + 1
    alpha = np.full((m, p), 1.0 / p)
    r = np.bincount(inst.ravel(), minlength=n) / p
    rows = np.arange(m)
    for t in range(1, T + 1):
        gamma = 1.0 / (t + 1)
        j = np.argmin(r[inst], axis=1)
        alpha *= 1.0 - gamma
        alpha[rows, j] += gamma
        r = (1.0 - gamma) * r + gamma * np.bincount(inst[rows, j], minlength=n)
    return alpha, r


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("h", [2, 3, 4])
def test_fw_local_equals_reference(seed, h):
    pdf = sd.er_graph_pd(n=40, m=200, seed=seed)
    inst = local_from_pandas(pdf).with_cliques(h).inst
    for T in (0, 1, 7):
        alpha, r = fw_local(inst, T)
        ref_alpha, ref_r = _fw_reference(inst, T)
        assert (alpha == ref_alpha).all() and (r == ref_r).all()
