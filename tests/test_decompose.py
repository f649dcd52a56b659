"""TentativeGD and stable h-clique groups: structural properties, and
TentativeGD against the per-instance loop it replaced."""
import random

import numpy as np
import pytest

from repro import synth_data as sd
from repro.core.decompose import derive_stable_groups, tentative_gd_local
from repro.core.fw import fw_local
from repro.graphs.local import local_from_pandas


@pytest.fixture(scope="module")
def case():
    pdf = sd.planted_communities_pd(
        n=100, m_background=160, blocks=[(10, 0.95), (8, 0.9)], seed=61
    )
    lg = local_from_pandas(pdf).with_cliques(3)
    alpha, r = fw_local(lg.inst, 10)
    pieces, r_new = tentative_gd_local(lg.inst, alpha, r)
    return lg, pieces, r_new


def test_pieces_partition_instance_vertices(case):
    lg, pieces, _r = case
    flat = [v for p in pieces for v in p.tolist()]
    inst_verts = set(lg.inst.ravel().tolist())
    assert sorted(flat) == sorted(inst_verts)
    assert len(flat) == len(set(flat))


def test_reassigned_r_conserves_mass(case):
    lg, _pieces, r = case
    assert r.sum() == pytest.approx(len(lg.instances), abs=1e-9)


def test_straddling_mass_moved_to_last_piece(case):
    """After TentativeGD every instance's weight sits entirely inside one
    piece: summing r per piece must give an integer instance count."""
    lg, pieces, r = case
    grp = {v: i for i, p in enumerate(pieces) for v in p.tolist()}
    per = [0.0] * len(pieces)
    for v, rv in enumerate(r.tolist()):
        if v in grp:
            per[grp[v]] += rv
        else:
            assert rv == 0.0  # a vertex in no instance receives nothing
    for s in per:
        assert s == pytest.approx(round(s), abs=1e-6)


def test_first_piece_is_densest_prefix(case):
    lg, pieces, _r = case
    # the first piece must have instance density >= the whole graph's
    d_first = lg.density(lg.ids[pieces[0]].tolist())
    inst_verts = {v for t in lg.instances for v in t}
    assert d_first >= lg.instance_count(inst_verts) / len(inst_verts) - 1e-9


def test_stable_groups_cover_and_order(case):
    _lg, pieces, r = case
    groups = derive_stable_groups(pieces, r)
    flat = [v for g, _, _ in groups for v in g]
    assert sorted(flat) == sorted(v for p in pieces for v in p)
    # strict separation between consecutive stable groups
    for (g1, mn1, _mx1), (_g2, _mn2, mx2) in zip(groups, groups[1:]):
        assert mn1 > mx2


def test_stable_group_minmax_consistent(case):
    _lg, pieces, r = case
    for g, mn, mx in derive_stable_groups(pieces, r):
        assert mn == pytest.approx(min(r[v] for v in g))
        assert mx == pytest.approx(max(r[v] for v in g))


def test_merge_on_ties():
    pieces = [[1], [2], [3]]
    r = np.array([0.0, 5.0, 5.0, 1.0])
    groups = derive_stable_groups(pieces, r)
    assert [sorted(g) for g, _, _ in groups] == [[1, 2], [3]]


def test_single_piece():
    groups = derive_stable_groups([[1, 2]], np.array([0.0, 2.0, 1.0]))
    assert len(groups) == 1


def test_empty_pieces():
    assert derive_stable_groups([], np.zeros(0)) == []


def _loop_tentative_gd(instances, alpha, r):
    """Reference: TentativeGD as a loop over instance tuples and dicts."""
    verts = sorted(r, key=lambda v: (-r[v], v))
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    cnt = np.zeros(n, dtype=np.int64)
    for inst in instances:
        cnt[max(pos[v] for v in inst)] += 1
    cum = np.cumsum(cnt)
    dens = cum / np.arange(1, n + 1)
    sufmax = np.maximum.accumulate(dens[::-1])[::-1]
    bnd = dens >= sufmax
    grp_of_pos = np.concatenate([[0], np.cumsum(bnd[:-1])])
    grp = {v: int(grp_of_pos[pos[v]]) for v in verts}
    new_r = {v: 0.0 for v in verts}
    for i, inst in enumerate(instances):
        pmax = max(grp[v] for v in inst)
        in_p = [j for j, v in enumerate(inst) if grp[v] == pmax]
        s = sum(alpha[i, j] for j, v in enumerate(inst) if grp[v] != pmax)
        share = s / len(in_p)
        for j, v in enumerate(inst):
            if grp[v] == pmax:
                new_r[v] += alpha[i, j] + share
    n_groups = int(grp_of_pos[-1]) + 1 if n else 0
    pieces = [[] for _ in range(n_groups)]
    for v in verts:
        pieces[grp[v]].append(v)
    return pieces, new_r


@pytest.mark.parametrize("p", [2, 3, 4, 5])
@pytest.mark.parametrize("weights", ["fw", "random"])
def test_tentative_gd_matches_loop_reference(p, weights):
    """Same pieces and r (within 1e-9) as the loop, on random hypergraphs
    with isolated vertices, a single instance or none; FW weights bring
    ties in r, random feasible weights do not."""
    rng = random.Random(p)
    nrng = np.random.default_rng(p)
    for _ in range(25):
        n = rng.randint(p, 30)
        m = rng.choice([0, 1, rng.randint(2, 80)])
        rows = sorted({tuple(sorted(rng.sample(range(n), p))) for _ in range(m)})
        inst = np.array(rows, dtype=np.int32).reshape(len(rows), p)
        if weights == "fw":
            alpha, r = fw_local(inst, rng.randint(0, 6))
        else:
            alpha = nrng.dirichlet(np.ones(p), size=len(rows)).reshape(len(rows), p)
            r = np.bincount(inst.ravel(), weights=alpha.ravel(), minlength=n)
        pieces, new_r = tentative_gd_local(inst, alpha, r)
        r_dict = {v: float(r[v]) for v in set(inst.ravel().tolist())}
        ref_pieces, ref_r = _loop_tentative_gd(rows, alpha, r_dict)
        assert [pc.tolist() for pc in pieces] == ref_pieces
        for v in range(len(new_r)):
            assert new_r[v] == pytest.approx(ref_r.get(v, 0.0), abs=1e-9)
