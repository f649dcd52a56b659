"""The paper's flow networks, solved exactly in integer capacities.

Three constructions, all driver-side (the networks are deliberately small
— the fast verifier's whole point is shrinking them — and capacities must
be exact rationals):

- ``derive_compact``: Algorithm 4's DeriveCompact(G, rho, P). Given a
  vertex set, its inner instances, and optionally the boundary instance
  set P (instances with ``cnt < h`` members inside, Algorithm 5), computes
  the union of all maximal h-clique rho-compact subgraphs via one min-cut
  (Theorem 5). The caller passes ``rho`` already *including* the
  ``-1/|V|^2`` slack, as an exact Fraction.
- ``is_densest``: the kClist++ self-densest check — is there a strictly
  denser subgraph inside G[S]? One min-cut on the hyperedge
  densest-subgraph network at density rho + 1/(2|S|^2).
- ``densest_sub`` / ``exact_decomposition``: exact maximal densest
  subgraph (Dinkelbach iteration, each step on the previous step's
  maximizer only, terminating because the density strictly increases and
  takes rational values with denominator <= n) and the
  diminishingly-dense decomposition by marginal density. By Theorem 2 the
  block densities are exactly the h-clique compact numbers; this is the
  exactness fallback and the flow-exact baseline (LTDS/LDSflow stand-in).

Every capacity is a rational with a denominator known up front, so each
network is built directly in integers, scaled by one common multiple:
``L = lcm(rho.denominator, every boundary cnt)`` for DeriveCompact (a
boundary share ``h/cnt`` becomes ``h*L//cnt``), ``2|S|^2`` for IsDensest
(its sink capacity ``|Psi(S)|/|S| + 1/(2|S|^2)`` becomes
``2|S||Psi(S)| + 1``), and ``rho.denominator`` for each Dinkelbach step.
Scaling every capacity by the same positive integer leaves the min cuts
unchanged.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .dinic import Dinic

Instance = tuple[int, ...]


def derive_compact(
    vertices: Sequence[int],
    instances: Sequence[Instance],
    h: int,
    rho: Fraction,
    boundary: Sequence[tuple[Instance, int]] = (),
) -> set[int]:
    """Union of all maximal h-clique rho-compact subgraphs (Theorem 5).

    ``instances`` are the instances fully inside ``vertices``;
    ``boundary`` holds Algorithm 5's P: pairs ``(members_inside, cnt)``
    where ``members_inside`` are the instance's vertices inside the
    region and ``cnt = len(members_inside)``. Returns the vertex set of
    the maximal min-cut source side.
    """
    verts = list(vertices)
    vid = {v: i + 1 for i, v in enumerate(verts)}  # 0 = source
    inst_base = 1 + len(verts)
    bnd_base = inst_base + len(instances)
    t = bnd_base + len(boundary)

    rho = Fraction(rho)
    L = rho.denominator
    for _members, cnt in boundary:
        L = math.lcm(L, cnt)
    back = (h - 1) * L
    deg = [0] * inst_base  # by node id: scaled instance weight per vertex
    us: list[int] = []
    vs: list[int] = []
    caps: list[int] = []
    for i, inst in enumerate(instances):
        nid = inst_base + i
        for v in inst:
            x = vid[v]
            us += (nid, x)
            vs += (x, nid)
            caps += (back, L)
            deg[x] += L
    for j, (members, cnt) in enumerate(boundary):
        nid = bnd_base + j
        share = h * L // cnt  # 1 + (h - cnt)/cnt, scaled
        for v in members:
            x = vid[v]
            us += (nid, x)
            vs += (x, nid)
            caps += (back, share)
            deg[x] += share
    sink = rho.numerator * h * (L // rho.denominator)
    for x in range(1, inst_base):
        us += (x, 0)
        vs += (t, x)
        caps += (sink, deg[x])

    net = Dinic(t + 1)
    net.add_edges(us, vs, caps)
    net.max_flow(0, t)
    side = net.max_cut_source_side(t)
    return {v for v in verts if vid[v] in side}


def is_densest(
    vertices: Sequence[int], instances: Sequence[Instance], p: int
) -> bool:
    """True iff no subgraph of G[vertices] is strictly denser (instance
    density) than G[vertices] itself."""
    verts = list(vertices)
    n = len(verts)
    if n == 0:
        raise ValueError("empty candidate")
    k = len(instances)
    if k == 0:
        return True  # density 0; no subgraph can be denser than 0? subgraphs also 0
    # capacities scaled by L = 2n^2: unit arcs become L, the sink arcs at
    # rho = k/n + 1/(2n^2) become 2nk + 1, and (k + 1) stands for infinity
    L = 2 * n * n
    vid = {v: i + 1 for i, v in enumerate(verts)}
    inst_base = 1 + n
    t = inst_base + k
    inf = (k + 1) * L
    us: list[int] = []
    vs: list[int] = []
    caps: list[int] = []
    for i, inst in enumerate(instances):
        nid = inst_base + i
        us.append(0)
        vs.append(nid)
        caps.append(L)
        for v in inst:
            us.append(nid)
            vs.append(vid[v])
            caps.append(inf)
    us += range(1, inst_base)
    vs += [t] * n
    caps += [2 * n * k + 1] * n
    net = Dinic(t + 1)
    net.add_edges(us, vs, caps)
    flow = net.max_flow(0, t)
    # min cut == k  <=>  max over S' of |Psi(S')| - rho|S'| == 0 (empty set)
    return flow == k * L


def densest_sub(
    vertices: Iterable[int], hyperedges: Mapping[Instance, int]
) -> tuple[set[int], Fraction]:
    """Maximal densest subgraph for weighted hyperedges, exactly.

    Maximizes ``f(S)/|S|`` where ``f(S)`` sums the weights of hyperedges
    fully inside S. Dinkelbach iteration: at the current density rho,
    extract the maximal maximizer of ``f(S) - rho|S|``; a strictly
    positive value yields a strictly denser S, otherwise the maximal
    maximizer is the maximal densest subgraph.

    Each step runs on the previous step's S only (CoreExact's nesting,
    Fang et al., VLDB 2019). For rho < rho', let A be the maximal
    maximizer at rho and B any maximizer at rho'. f is supermodular, so
    ``f(A | B) - f(A) >= f(B) - f(A & B)``; A's optimality at rho bounds
    the left side by ``rho |B - A|`` and B's at rho' bounds the right side
    below by ``rho' |B - A|``, which forces ``B <= A``. Every later
    maximizer therefore lies inside S, where f is unchanged when only the
    hyperedges inside S are kept: the steps, their number and the result
    are those of the iteration on the whole vertex set.
    """
    verts = [v for v in vertices]
    if not verts:
        return set(), Fraction(0)
    edges = list(hyperedges.items())
    W = sum(w for _members, w in edges)
    if W == 0:
        return set(verts), Fraction(0)
    # at rho = 0 the maximal maximizer is always V itself, so start at d(V)
    rho = Fraction(W, len(verts))
    best: set[int] = set(verts)
    while True:
        # unit capacities are multiplied by rho's denominator, and the sink
        # arcs (rho each) become rho's numerator
        L = rho.denominator
        vid = {v: i + 1 for i, v in enumerate(verts)}
        inst_base = 1 + len(verts)
        t = inst_base + len(edges)
        big = (W + 1) * L  # effectively infinite
        us: list[int] = []
        vs: list[int] = []
        caps: list[int] = []
        for i, (members, w) in enumerate(edges):
            nid = inst_base + i
            us.append(0)
            vs.append(nid)
            caps.append(w * L)
            for v in members:
                us.append(nid)
                vs.append(vid[v])
                caps.append(big)
        us += range(1, inst_base)
        vs += [t] * len(verts)
        caps += [rho.numerator] * len(verts)
        net = Dinic(t + 1)
        net.add_edges(us, vs, caps)
        net.max_flow(0, t)
        side = net.max_cut_source_side(t)
        S = {v for v in verts if vid[v] in side}
        inside = [(members, w) for members, w in edges if all(v in S for v in members)]
        fS = sum(w for _members, w in inside)
        if S and Fraction(fS, len(S)) > rho:
            rho, best = Fraction(fS, len(S)), S
            verts = [v for v in verts if v in S]
            edges = inside
        else:
            # at rho == max density, the maximal maximizer of f - rho|S|
            # is the maximal densest subgraph (value 0 achieved by it)
            if S:
                best = S
            return best, rho


def exact_decomposition(
    vertices: Iterable[int], instances: Sequence[Instance]
) -> list[tuple[set[int], Fraction]]:
    """Diminishingly-dense decomposition by marginal instance density.

    Returns blocks ``(B_i, rho_i)`` with strictly decreasing ``rho_i``;
    by Theorem 2, ``phi_h(u) = rho_i`` for every ``u`` in block ``B_i``.
    """
    remaining = set(vertices)
    done: set[int] = set()
    blocks: list[tuple[set[int], Fraction]] = []
    while remaining:
        hyper: dict[Instance, int] = {}
        for inst in instances:
            rest = tuple(sorted(set(inst) - done))
            if rest:
                hyper[rest] = hyper.get(rest, 0) + 1
        if not hyper:
            blocks.append((set(remaining), Fraction(0)))
            break
        S, d = densest_sub(remaining, hyper)
        if d == 0:
            blocks.append((set(remaining), Fraction(0)))
            break
        assert not blocks or d < blocks[-1][1], "block densities must decrease"
        blocks.append((S, d))
        done |= S
        remaining -= S
    return blocks


def compact_numbers_exact(
    vertices: Iterable[int], instances: Sequence[Instance]
) -> dict[int, Fraction]:
    """Exact h-clique compact numbers phi_h(u) via the decomposition."""
    out: dict[int, Fraction] = {}
    for block, d in exact_decomposition(vertices, instances):
        for v in block:
            out[v] = d
    return out
