"""Pruning (Proposition 5): soundness — no LhCDS vertex is ever pruned."""
import random
from fractions import Fraction

import numpy as np
import pytest

from repro import synth_data as sd
from repro.core.bruteforce import brute_compact_numbers, brute_lhcds
from repro.core.prune import prune_local
from repro.flow.networks import compact_numbers_exact
from repro.graphs.local import LocalGraph, local_from_pandas


def _random_graph(seed, lo=6, hi=9):
    rng = random.Random(seed)
    n = rng.randint(lo, hi)
    p = rng.uniform(0.3, 0.7)
    return LocalGraph(
        n_hint=n,
        edges=[(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p],
    )


def _tight_bounds(lg, slack=0.0):
    phi = compact_numbers_exact(lg.vertices, lg.instances)
    ub = np.array([float(phi[v]) + slack for v in lg.vertices])
    lb = np.array([max(0.0, float(phi[v]) - slack) for v in lg.vertices])
    return ub, lb


def _prune_all(lg, ub, lb):
    """prune_local over the whole graph, survivors as vertex ids."""
    kept = prune_local(lg, np.arange(lg.n), ub, lb)
    return set(lg.ids[kept].tolist())


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("h", [2, 3])
def test_prune_never_removes_lhcds_vertices(seed, h):
    lg = _random_graph(seed).with_cliques(h)
    ub, lb = _tight_bounds(lg)
    alive = _prune_all(lg, ub, lb)
    for S, d in brute_lhcds(lg):
        if d > 0:
            assert S <= alive


@pytest.mark.parametrize("seed", range(6))
def test_prune_with_loose_bounds_is_noop_safe(seed):
    lg = _random_graph(seed).with_cliques(3)
    cores_ub = np.array([float(len(lg.inc[v])) for v in lg.vertices])
    lb = np.zeros(lg.n)
    alive = _prune_all(lg, cores_ub, lb)
    assert alive == set(lg.vertices)  # zero lower bounds prune nothing


def test_prune_cond1_removes_low_neighbors():
    # K5 with a pendant triangle hanging off an edge: the triangle's phi
    # (1/3) is far below the K5's lower bound (2), so its bridge vertex
    # falls to condition (1)
    import pandas as pd

    pdf = pd.concat(
        [sd.clique_pd([0, 1, 2, 3, 4]), pd.DataFrame({"src": [4], "dst": [5]}),
         sd.clique_pd([5, 6, 7])]
    )
    lg = local_from_pandas(pdf).with_cliques(3)
    ub, lb = _tight_bounds(lg)
    alive = _prune_all(lg, ub, lb)
    assert {0, 1, 2, 3, 4} <= alive
    assert 5 not in alive


def test_prune_cond2_cascade():
    # once the bridge vertex 5 is pruned by condition (1), vertices 6 and 7
    # lose their only triangle: their core drops below their lower bound
    # (1/3), so condition (2) cascades them away too
    import pandas as pd

    pdf = pd.concat(
        [sd.clique_pd([0, 1, 2, 3, 4]), pd.DataFrame({"src": [4], "dst": [5]}),
         sd.clique_pd([5, 6, 7])]
    )
    lg = local_from_pandas(pdf).with_cliques(3)
    ub, lb = _tight_bounds(lg)
    alive = _prune_all(lg, ub, lb)
    assert alive == {0, 1, 2, 3, 4}
