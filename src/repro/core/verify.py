"""LhCDS verification (Algorithms 4 and 5).

``verify_basic`` is Algorithm 4: build the DeriveCompact flow network
over the *whole* graph at rho = d(G[S]) - 1/|V|^2 and test whether S is a
connected component of the union of maximal rho-compact subgraphs
(Theorem 5). Always exact; deliberately expensive — it is the paper's
comparison baseline (Figure 9).

``verify_fast`` is Algorithm 5: a BFS from S over the vertices whose
compact-number bounds straddle rho collects the region T that any
rho-compact supergraph of S could live in, plus the boundary instances P
(those with cnt < h members inside T) whose weight is re-shared among
their inner members so that compact numbers inside G[T] match those in
G. Three outcomes:

- the BFS discovers nothing outside S -> S is maximal by construction
  (every vertex of a rho-compact supergraph has upper bound >= rho and
  would have been explored), return True with no flow at all;
- a direct neighbour of S is an already-output LhCDS vertex of density
  >= rho, or has a *lower* bound above rho -> it has phi >= rho, so S
  plus that neighbour's rho-compact home is a strictly larger connected
  rho-compact graph: reject S outright, with no flow (DESIGN.md
  section 3.2);
- otherwise solve the small DeriveCompact(G[T], rho - 1/|T|^2, P)
  network and test S against its components (Theorem 6). The network's
  min-cut side ``M`` is a pure function of ``(T, inner, boundary,
  rho_eff)``, so a caller may pass a ``memo`` dict keyed by that problem
  and candidates that reduce to the same problem share one flow.

Callers must pass *globally valid* bounds (see DESIGN.md on bound
scoping). Bound comparisons use a tolerance in the direction that only
enlarges T / keeps more instances valid — never the unsafe direction.
"""
from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np

from ..flow.networks import derive_compact
from ..graphs.local import LocalGraph

TOL = 1e-9


def _is_component(lg: LocalGraph, S: set[int], M: set[int]) -> bool:
    """Is S exactly one connected component of G[M]?"""
    if not S.issubset(M):
        return False
    return any(comp == S for comp in lg.components(M))


def candidate_density(lg: LocalGraph, S: set[int]) -> Fraction:
    return Fraction(lg.instance_count(S), len(S))


def verify_basic(lg: LocalGraph, S: set[int], stats: dict | None = None) -> bool:
    """Algorithm 4: exact maximal-compactness check on the full graph."""
    if stats is not None:
        stats["verify_basic"] = stats.get("verify_basic", 0) + 1
    rho = candidate_density(lg, S) - Fraction(1, lg.n * lg.n)
    M = derive_compact(lg.vertices, lg.instances, lg.p, rho)
    return _is_component(lg, S, M)


def reduce_candidate(
    lg: LocalGraph,
    S: set[int],
    ub: np.ndarray,
    lb: np.ndarray,
    out_exact: dict[int, Fraction],
):
    """Algorithm 5's BFS reduction, separated from solving.

    ``ub`` and ``lb`` are the bound arrays indexed by vertex position
    (``lg.pos``); ``S`` and the returned region are vertex ids.

    Returns ``("decided", bool)`` when the BFS settles the verdict without
    any flow, or ``("flow", T, inner, boundary, rho_eff)`` — the
    size-reduced DeriveCompact problem — otherwise, which ``verify_fast``
    solves or finds in its memo.
    """
    h = lg.p
    rho = candidate_density(lg, S)
    rhof = float(rho)
    pos = lg.pos
    ubl, lbl = ub.tolist(), lb.tolist()
    lo, hi = rhof - TOL, rhof + TOL  # rho with the tolerance either way

    # Theorem 1: every vertex of an LhCDS has phi == d(G[S]); a member whose
    # bounds exclude rho disproves S outright (and guarantees below that all
    # T members satisfy lb <= rho <= ub, keeping P consistent).
    for s in S:
        if lbl[pos[s]] > hi or ubl[pos[s]] < lo:
            return ("decided", False)

    # Direct-neighbor rejection, exact: if w adjacent to S has phi >= rho
    # (known exactly for output vertices, or certified by lb > rho), then
    # S ∪ (w's rho-compact home) is a connected rho-compact strict superset
    # of S — S cannot be maximal. (Uses that G[S] itself is rho-compact.)
    for s in S:
        for w in lg.adj[s]:
            if w in S:
                continue
            if w in out_exact and out_exact[w] >= rho:
                return ("decided", False)
            if lbl[pos[w]] > hi:
                return ("decided", False)

    T: set[int] = set(S)
    U: deque[int] = deque(S)
    W: set[int] = set()
    P: set[int] = set()  # boundary instances (some member outside T)

    while U:
        v = U.popleft()
        for i in lg.inc[v]:
            if i in W:
                continue
            W.add(i)
            inst = lg.instances[i]
            if any(ubl[pos[w]] < lo for w in inst):
                continue  # instance cannot lie inside any rho-compact subgraph
            cnt = 0
            for w in inst:
                if lbl[pos[w]] <= hi:
                    cnt += 1
                    if w not in T:
                        T.add(w)
                        U.append(w)
            if cnt != h:
                # members with lb > rho have phi > rho, hence sit inside the
                # maximal rho-compact subgraph for sure: the P-mechanism
                # re-shares the instance's weight over its T members
                P.add(i)
        for w in lg.adj[v]:
            if w in T:
                continue
            # neighbors with lb > rho carry no instances into T beyond those
            # already recorded in P (plain edges add no h-cliques), so they
            # cannot change S's component; skip them
            if lbl[pos[w]] <= hi and ubl[pos[w]] > lo:
                T.add(w)
                U.append(w)

    if T == set(S) and not P:
        return ("decided", True)

    inner = [lg.instances[i] for i in sorted(W) if i not in P and T.issuperset(lg.instances[i])]
    # the paper's cnt is |psi ∩ G[T]|; recompute from actual T membership so
    # the capacity formula stays consistent with the network's vertex set
    boundary = []
    for i in sorted(P):
        members = tuple(w for w in lg.instances[i] if w in T)
        if members:
            boundary.append((members, len(members)))
    rho_eff = rho - Fraction(1, len(T) * len(T))
    return ("flow", T, inner, boundary, rho_eff)


def verify_fast(
    lg: LocalGraph,
    S: set[int],
    ub: np.ndarray,
    lb: np.ndarray,
    out_exact: dict[int, Fraction],
    stats: dict | None = None,
    memo: dict | None = None,
) -> bool:
    """Algorithm 5: size-reduced verification.

    Preconditions: S is connected and self-densest (so G[S] itself is
    d(G[S])-compact), and bounds are globally valid. ``out_exact`` maps
    vertices of already-output LhCDSes to their exact densities (== their
    exact compact numbers by Theorem 1). ``memo``, if given, caches the
    DeriveCompact result per reduced problem; share it only across calls
    on the same graph.
    """
    if stats is not None:
        stats["verify_fast"] = stats.get("verify_fast", 0) + 1
    reduced = reduce_candidate(lg, S, ub, lb, out_exact)
    if reduced[0] == "decided":
        if stats is not None and reduced[1]:
            stats["verify_shortcut"] = stats.get("verify_shortcut", 0) + 1
        return reduced[1]
    _tag, T, inner, boundary, rho_eff = reduced
    memo = {} if memo is None else memo
    key = (frozenset(T), tuple(inner), tuple(boundary), rho_eff)
    if key not in memo:
        if stats is not None:
            stats["verify_flow"] = stats.get("verify_flow", 0) + 1
            stats["flow_network_nodes"] = (
                stats.get("flow_network_nodes", 0) + len(T) + len(inner) + len(boundary)
            )
        memo[key] = derive_compact(sorted(T), inner, lg.p, rho_eff, boundary)
    return _is_component(lg, S, memo[key])
