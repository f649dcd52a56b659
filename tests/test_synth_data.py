"""Generators: determinism, canonical form, planted structure."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd


def _canonical(pdf: pd.DataFrame) -> bool:
    if (pdf["src"] >= pdf["dst"]).any():
        return False
    return not pdf.duplicated(["src", "dst"]).any()


GENS = {
    "er": lambda s: sd.er_graph_pd(n=80, m=200, seed=s),
    "planted": lambda s: sd.planted_communities_pd(
        n=120, m_background=200, blocks=[(10, 0.9), (8, 0.8)], seed=s
    ),
    "team": lambda s: sd.team_graph_pd(n=150, n_teams=25, team_size=(3, 6), seed=s),
    "powerlaw": lambda s: sd.powerlaw_graph_pd(n=150, m=400, seed=s),
    "web": lambda s: sd.web_graph_pd(n=150, extra=60, seed=s),
    "ep": lambda s: sd.ep_like_pd(n_core=150, m_core=350, seed=s),
}


@pytest.mark.parametrize("name", sorted(GENS))
def test_generator_canonical(name):
    assert _canonical(GENS[name](7))


@pytest.mark.parametrize("name", sorted(GENS))
def test_generator_deterministic(name):
    a, b = GENS[name](3), GENS[name](3)
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize("name", sorted(GENS))
def test_generator_seed_sensitive(name):
    a, b = GENS[name](3), GENS[name](4)
    assert not a.equals(b)


def test_er_graph_size():
    pdf = sd.er_graph_pd(n=100, m=300, seed=0)
    assert len(pdf) == 300
    assert pdf[["src", "dst"]].to_numpy().max() < 100


def test_planted_blocks_are_dense():
    pdf = sd.planted_communities_pd(
        n=200, m_background=100, blocks=[(12, 1.0)], seed=1
    )
    block = pdf[(pdf.src < 12) & (pdf.dst < 12)]
    assert len(block) == 12 * 11 // 2  # p_in=1.0 keeps the full clique


def test_planted_no_direct_interblock_edges():
    pdf = sd.planted_communities_pd(
        n=300, m_background=2000, blocks=[(15, 0.9), (15, 0.9), (12, 0.8)], seed=2
    )
    blk = np.full(300, -1)
    blk[:15], blk[15:30], blk[30:42] = 0, 1, 2
    bs, bd = blk[pdf.src.to_numpy()], blk[pdf.dst.to_numpy()]
    assert not ((bs >= 0) & (bd >= 0) & (bs != bd)).any()


def test_clique_pd():
    ce = sd.clique_pd([3, 1, 7])
    assert sorted(map(tuple, ce.to_numpy())) == [(1, 3), (1, 7), (3, 7)]


def test_team_graph_respects_cap():
    pdf = sd.team_graph_pd(n=50, n_teams=40, team_size=(4, 6), overlap=0.0, seed=3)
    assert pdf[["src", "dst"]].to_numpy().max() < 50


def test_team_overlap_increases_reuse():
    lo = sd.team_graph_pd(n=10_000, n_teams=50, team_size=(4, 6), overlap=0.0, seed=4)
    hi = sd.team_graph_pd(n=10_000, n_teams=50, team_size=(4, 6), overlap=0.5, seed=4)
    n_lo = len(set(lo.src) | set(lo.dst))
    n_hi = len(set(hi.src) | set(hi.dst))
    assert n_hi < n_lo  # higher overlap -> fewer distinct vertices


def test_web_graph_sparse_and_connectedish():
    pdf = sd.web_graph_pd(n=300, extra=50, seed=5)
    assert len(pdf) <= 300 - 1 + 50


def test_polbooks_like_shape():
    edges, labels = sd.polbooks_like_pd(seed=0)
    assert len(labels) == 105
    assert set(labels) == {"liberal", "conservative", "neutral"}
    assert _canonical(edges)
