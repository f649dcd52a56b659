"""TentativeGD and stable h-clique groups: structural properties."""
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
    alpha, r = fw_local(lg.instances, 10)
    pieces, r_new = tentative_gd_local(lg.instances, alpha, r)
    return lg, pieces, r_new


def test_pieces_partition_instance_vertices(case):
    lg, pieces, _r = case
    flat = [v for p in pieces for v in p]
    inst_verts = {v for t in lg.instances for v in t}
    assert sorted(flat) == sorted(inst_verts)
    assert len(flat) == len(set(flat))


def test_reassigned_r_conserves_mass(case):
    lg, _pieces, r = case
    assert sum(r.values()) == pytest.approx(len(lg.instances), abs=1e-9)


def test_straddling_mass_moved_to_last_piece(case):
    """After TentativeGD every instance's weight sits entirely inside one
    piece: summing r per piece must give an integer instance count."""
    lg, pieces, r = case
    grp = {v: i for i, p in enumerate(pieces) for v in p}
    per = [0.0] * len(pieces)
    for v, rv in r.items():
        per[grp[v]] += rv
    for s in per:
        assert s == pytest.approx(round(s), abs=1e-6)


def test_first_piece_is_densest_prefix(case):
    lg, pieces, _r = case
    # the first piece must have instance density >= the whole graph's
    d_first = lg.density(set(pieces[0]))
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
    r = {1: 5.0, 2: 5.0, 3: 1.0}
    groups = derive_stable_groups(pieces, r)
    assert [sorted(g) for g, _, _ in groups] == [[1, 2], [3]]


def test_single_piece():
    groups = derive_stable_groups([[1, 2]], {1: 2.0, 2: 1.0})
    assert len(groups) == 1


def test_empty_pieces():
    assert derive_stable_groups([], {}) == []
