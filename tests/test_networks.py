"""Flow networks vs brute-force Definitions 1/4 on random tiny graphs."""
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from repro.core.bruteforce import _Masks, brute_compact_numbers, brute_lhcds
from repro.flow.networks import (
    compact_numbers_exact,
    densest_sub,
    derive_compact,
    exact_decomposition,
    is_densest,
)
from repro.graphs.local import LocalGraph


def _random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(5, 9)
    p = rng.uniform(0.3, 0.7)
    return LocalGraph(
        n_hint=n,
        edges=[(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p],
    )


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("h", [2, 3])
def test_compact_numbers_exact_vs_bruteforce(seed, h):
    lg = _random_graph(seed).with_cliques(h)
    assert compact_numbers_exact(lg.vertices, lg.instances) == brute_compact_numbers(lg)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("h", [2, 3, 4])
def test_derive_compact_vs_bruteforce(seed, h):
    """Theorem 5: DeriveCompact(G, rho - 1/n^2) is the union of all maximal
    h-clique rho-compact subgraphs."""
    lg = _random_graph(seed).with_cliques(h)
    mk = _Masks(lg)
    phis = set(brute_compact_numbers(lg).values()) - {Fraction(0)}
    for rho in phis:
        union = 0
        for mask in range(1, 1 << mk.n):
            c = mk.compactness(mask)
            if c is not None and c >= rho:
                union |= mask
        ref = {mk.verts[i] for i in range(mk.n) if union >> i & 1}
        got = derive_compact(
            lg.vertices, lg.instances, h, rho - Fraction(1, lg.n * lg.n)
        )
        assert got == ref


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("h", [3, 4, 5])
def test_derive_compact_with_boundary_vs_bruteforce(seed, h):
    """Algorithm 5's P: a boundary instance with ``cnt`` members inside
    counts as one instance on those members (each carries ``h/cnt`` of its
    weight), so DeriveCompact returns the maximal maximizer of
    ``|inner(X)| + |P(X)| - rho|X|``. Boundary sizes up to h - 1 exercise
    every ``lcm(rho.denominator, cnt)`` scaling."""
    rng = random.Random(seed)
    verts = list(range(rng.randint(h + 1, 9)))
    inner = [tuple(sorted(rng.sample(verts, h))) for _ in range(rng.randint(1, 8))]
    boundary = []
    for _ in range(rng.randint(1, 6)):
        members = tuple(sorted(rng.sample(verts, rng.randint(1, h - 1))))
        boundary.append((members, len(members)))
    hyper = inner + [m for m, _ in boundary]

    def value(X, rho):
        return sum(1 for e in hyper if X.issuperset(e)) - rho * len(X)

    subsets = [
        {v for i, v in enumerate(verts) if mask >> i & 1}
        for mask in range(1 << len(verts))
    ]
    densities = {Fraction(sum(1 for e in hyper if X.issuperset(e)), len(X)) for X in subsets if X}
    # at rho = a density itself, ties decide the maximal maximizer exactly
    for d in densities - {Fraction(0)}:
        for rho in (d, d - Fraction(1, len(verts) ** 2)):
            best = max(value(X, rho) for X in subsets)
            ref = set().union(*(X for X in subsets if value(X, rho) == best))
            assert derive_compact(verts, inner, h, rho, boundary) == ref


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("h", [2, 3, 4])
def test_is_densest_vs_bruteforce(seed, h):
    lg = _random_graph(seed).with_cliques(h)
    mk = _Masks(lg)
    rng = random.Random(seed * 7)
    # probe a handful of random connected subsets
    masks = [m for m in range(1, 1 << mk.n) if mk.connected(m)]
    for mask in rng.sample(masks, min(6, len(masks))):
        S = [mk.verts[i] for i in range(mk.n) if mask >> i & 1]
        d = mk.density(mask)
        ref = all(
            mk.density(sub) <= d
            for sub in range(1, 1 << mk.n)
            if sub & mask == sub
        )
        assert is_densest(S, lg.instances_within(S), h) == ref


@pytest.mark.parametrize("seed", range(8))
def test_densest_sub_is_maximal_densest(seed):
    lg = _random_graph(seed).with_cliques(3)
    mk = _Masks(lg)
    hyper = {t: 1 for t in lg.instances}
    got_S, got_d = densest_sub(lg.vertices, hyper)
    best = max(
        (mk.density(m) for m in range(1, 1 << mk.n)), default=Fraction(0)
    )
    assert got_d == best
    if best > 0:
        # maximality: got_S is the largest set achieving max density
        achievers = [
            m for m in range(1, 1 << mk.n) if mk.density(m) == best
        ]
        biggest = max(achievers, key=lambda m: bin(m).count("1"))
        assert got_S == {mk.verts[i] for i in range(mk.n) if biggest >> i & 1}


@pytest.mark.parametrize("seed", range(6))
def test_exact_decomposition_structure(seed):
    lg = _random_graph(seed).with_cliques(3)
    blocks = exact_decomposition(lg.vertices, lg.instances)
    # partition, strictly decreasing densities
    flat = [v for b, _ in blocks for v in b]
    assert sorted(flat) == sorted(lg.vertices)
    dens = [d for _, d in blocks]
    assert all(a > b for a, b in zip(dens, dens[1:]))


@pytest.mark.parametrize("q,h", [(3, 2), (5, 3), (6, 4), (7, 5)])
def test_densest_sub_on_clique_is_whole_clique(q, h):
    lg = LocalGraph(edges=list(combinations(range(q), 2))).with_cliques(h)
    S, d = densest_sub(lg.vertices, {t: 1 for t in lg.instances})
    assert S == set(range(q)) and d == Fraction(comb(q, h), q)


def test_densest_sub_empty():
    S, d = densest_sub([], {})
    assert S == set() and d == 0


def test_densest_sub_no_instances():
    S, d = densest_sub([1, 2, 3], {})
    assert d == 0 and S == {1, 2, 3}


def test_is_densest_empty_raises():
    with pytest.raises(ValueError):
        is_densest([], [], 3)


def test_lhcds_always_self_densest():
    for seed in range(5):
        lg = _random_graph(seed + 50).with_cliques(3)
        for S, _d in brute_lhcds(lg):
            assert is_densest(sorted(S), lg.instances_within(S), 3)
