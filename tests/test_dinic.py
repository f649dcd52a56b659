"""Dinic max-flow: hand networks + randomized brute-force cross-check."""
import random
from itertools import combinations

import pytest

from repro.flow.dinic import Dinic


def test_single_edge():
    d = Dinic(2)
    d.add_edge(0, 1, 7)
    assert d.max_flow(0, 1) == 7


def test_series_bottleneck():
    d = Dinic(3)
    d.add_edge(0, 1, 10)
    d.add_edge(1, 2, 4)
    assert d.max_flow(0, 2) == 4


def test_parallel_paths():
    d = Dinic(4)
    d.add_edge(0, 1, 3)
    d.add_edge(0, 2, 5)
    d.add_edge(1, 3, 4)
    d.add_edge(2, 3, 4)
    assert d.max_flow(0, 3) == 7


def test_classic_crossing_network():
    # the textbook example that needs the cross edge
    d = Dinic(4)
    d.add_edge(0, 1, 10)
    d.add_edge(0, 2, 10)
    d.add_edge(1, 2, 1)
    d.add_edge(1, 3, 10)
    d.add_edge(2, 3, 10)
    assert d.max_flow(0, 3) == 20


def test_disconnected_sink():
    d = Dinic(3)
    d.add_edge(0, 1, 5)
    assert d.max_flow(0, 2) == 0


def test_rejects_negative_capacity():
    d = Dinic(3)
    with pytest.raises(ValueError):
        d.add_edge(0, 1, -1)
    with pytest.raises(ValueError):
        d.add_edges([0, 1], [1, 2], [4, -2])


def _brute_min_cut(n, arcs, s, t):
    best = None
    others = [v for v in range(n) if v not in (s, t)]
    for r in range(len(others) + 1):
        for side in combinations(others, r):
            S = {s, *side}
            cut = sum(c for u, v, c in arcs if u in S and v not in S)
            if best is None or cut < best:
                best = cut
    return best


@pytest.mark.parametrize("trial", range(12))
def test_maxflow_equals_brute_min_cut(trial):
    rng = random.Random(trial)
    n = rng.randint(4, 8)
    arcs = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.45:
                arcs.append((u, v, rng.randint(1, 9)))
    d = Dinic(n)
    for u, v, c in arcs:
        d.add_edge(u, v, c)
    assert d.max_flow(0, n - 1) == _brute_min_cut(n, arcs, 0, n - 1)


@pytest.mark.parametrize("trial", range(8))
def test_cut_sides_are_min_cuts(trial):
    rng = random.Random(100 + trial)
    n = rng.randint(4, 7)
    arcs = [
        (u, v, rng.randint(1, 6))
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < 0.5
    ]
    d = Dinic(n)
    for u, v, c in arcs:
        d.add_edge(u, v, c)
    flow = d.max_flow(0, n - 1)
    for side in (d.min_cut_source_side(0), d.max_cut_source_side(n - 1)):
        assert 0 in side and (n - 1) not in side
        cut = sum(c for u, v, c in arcs if u in side and v not in side)
        assert cut == flow
    assert d.min_cut_source_side(0) <= d.max_cut_source_side(n - 1)


def test_big_integer_capacities():
    d = Dinic(3)
    d.add_edge(0, 1, 10**18)
    d.add_edge(1, 2, 10**18 - 1)
    assert d.max_flow(0, 2) == 10**18 - 1


@pytest.mark.parametrize("trial", range(20))
def test_bulk_matches_per_arc(trial):
    """``add_edges`` builds the same network as one ``add_edge`` per arc."""
    rng = random.Random(trial)
    n = rng.randint(4, 8)
    arcs = [
        (u, v, rng.randint(1, 9))
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < 0.5
    ]
    one, bulk = Dinic(n), Dinic(n)
    for u, v, c in arcs:
        one.add_edge(u, v, c)
    bulk.add_edges([u for u, _, _ in arcs], [v for _, v, _ in arcs], [c for *_, c in arcs])
    assert bulk.max_flow(0, n - 1) == one.max_flow(0, n - 1)
    assert bulk.min_cut_source_side(0) == one.min_cut_source_side(0)
    assert bulk.max_cut_source_side(n - 1) == one.max_cut_source_side(n - 1)
