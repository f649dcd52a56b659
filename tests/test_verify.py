"""Verification (Algorithms 4/5) against brute-force Definition 2."""
import random
from fractions import Fraction

import numpy as np
import pytest

from repro.core.bruteforce import _Masks, brute_lhcds
from repro.core.verify import candidate_density, verify_basic, verify_fast
from repro.flow.networks import compact_numbers_exact, is_densest
from repro.graphs.local import LocalGraph


def _random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(6, 9)
    p = rng.uniform(0.35, 0.7)
    return LocalGraph(
        n_hint=n,
        edges=[(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p],
    )


def _exact_bounds(lg):
    phi = compact_numbers_exact(lg.vertices, lg.instances)
    return (
        np.array([float(phi[v]) + 1e-9 for v in lg.vertices]),
        np.array([max(0.0, float(phi[v]) - 1e-9) for v in lg.vertices]),
    )


def _core_bounds(lg):
    from repro.graphs.cores import instance_core_numbers_local

    cores = instance_core_numbers_local(lg.n, lg.inst)
    return cores.astype(float), cores / lg.p


def _candidates(lg, rng, limit=8):
    """Self-densest connected subsets (the only inputs verify sees)."""
    mk = _Masks(lg)
    out = []
    for mask in range(1, 1 << mk.n):
        if not mk.connected(mask) or mk.count[mask] == 0:
            continue
        S = {mk.verts[i] for i in range(mk.n) if mask >> i & 1}
        if is_densest(sorted(S), lg.instances_within(S), lg.p):
            out.append(S)
    rng.shuffle(out)
    return out[:limit]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("h", [2, 3])
def test_verify_basic_matches_definition(seed, h):
    lg = _random_graph(seed).with_cliques(h)
    true_lhcds = {frozenset(S) for S, d in brute_lhcds(lg) if d > 0}
    rng = random.Random(seed)
    for S in _candidates(lg, rng):
        assert verify_basic(lg, S) == (frozenset(S) in true_lhcds), S


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("h", [2, 3, 4])
@pytest.mark.parametrize("bounds", ["exact", "core"])
def test_verify_fast_matches_definition(seed, h, bounds):
    lg = _random_graph(seed).with_cliques(h)
    true_lhcds = {frozenset(S) for S, d in brute_lhcds(lg) if d > 0}
    ub, lb = _exact_bounds(lg) if bounds == "exact" else _core_bounds(lg)
    rng = random.Random(seed)
    for S in _candidates(lg, rng):
        assert verify_fast(lg, S, ub, lb, {}) == (frozenset(S) in true_lhcds), S


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("h", [2, 3, 4])
def test_shared_memo_keeps_verdicts(seed, h):
    """One DeriveCompact memo shared by every candidate of a graph (as
    ``_core_loop`` does) leaves each verdict equal to brute force."""
    lg = _random_graph(seed).with_cliques(h)
    true_lhcds = {frozenset(S) for S, d in brute_lhcds(lg) if d > 0}
    ub, lb = _core_bounds(lg)
    memo = {}
    cands = _candidates(lg, random.Random(seed), limit=None)
    for S in cands + cands:  # the second pass answers from the memo
        assert verify_fast(lg, S, ub, lb, {}, memo=memo) == (frozenset(S) in true_lhcds), S


@pytest.mark.parametrize("seed", range(6))
def test_fast_agrees_with_basic_under_out_info(seed):
    """Feeding verified outputs back (out_exact) must not change verdicts."""
    lg = _random_graph(seed).with_cliques(3)
    ub, lb = _core_bounds(lg)
    outs = sorted(brute_lhcds(lg), key=lambda t: -t[1])
    out_exact = {}
    for S, d in outs:
        if d == 0:
            continue
        assert verify_fast(lg, set(S), ub, lb, out_exact)
        for v in S:
            out_exact[v] = d
            ub[lg.pos[v]] = min(ub[lg.pos[v]], float(d) + 1e-9)
            lb[lg.pos[v]] = max(lb[lg.pos[v]], float(d) - 1e-9)


def test_candidate_density():
    lg = LocalGraph(edges=[(0, 1), (1, 2), (0, 2)], instances=[(0, 1, 2)], p=3)
    assert candidate_density(lg, {0, 1, 2}) == Fraction(1, 3)
