"""IPPV: the Iterative Propose-Prune-and-Verify pipeline (Algorithms 6/7).

Spark does the scan-shaped work only: ``ippv`` enumerates the h-cliques
and ``ippv_instances`` takes any instance table (the section-5 LhxPDS
extension). Both collect edges and instances once into a driver-side
LocalGraph and hand it to ``ippv_local``, which runs every later stage
there: core-number bounds (InitializeBd), Frank-Wolfe, TentativeGD,
DeriveSG, pruning and exact max-flow verification. Candidates wait in a
max-heap keyed by a density cap, so the densest-looking one is examined
first. The loop keeps three invariants that make the output provably the
exact top-k (see DESIGN.md section 3):

1. every LhCDS of G is fully contained in exactly one queued candidate
   (stable groups cannot split a uniform-phi set; refinement by exact
   decomposition, components, or sub-proposal preserves containment);
2. a candidate is discarded only on proof that it contains no LhCDS
   (self-densest + connected + single decomposition block + failed
   maximal-compactness verification);
3. every queued candidate's cap bounds the density of each LhCDS inside
   it (Theorem 4 on a CP solution over the candidate or an ancestor, or
   the exact density of a split's top block), and the loop stops early
   only when the largest cap is strictly below the current k-th best
   density. Caps carry a +TOL slack, so every LhCDS tied with the k-th
   has been found by then and the returned top-k is the canonical one
   (first k by density, then sorted vertices), with no condition on n.
"""
from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from ..flow.networks import densest_sub, is_densest
from ..graphs.cliques import clique_instances, instances_to_local
from ..graphs.cores import instance_core_numbers_local
from ..graphs.local import LocalGraph
from .decompose import derive_stable_groups, tentative_gd_local
from .fw import fw_local
from .prune import prune_local
from .verify import candidate_density, verify_basic, verify_fast

TOL = 1e-9


@dataclass(frozen=True)
class LhCDS:
    """One verified locally densest subgraph."""

    vertices: frozenset[int]
    density: Fraction

    @property
    def size(self) -> int:
        return len(self.vertices)


def check_k(k: int | None) -> None:
    """Reject a top-k request for fewer than one result (``None`` = all)."""
    if k is not None and k < 1:
        raise ValueError(f"k must be None or at least 1, got {k}")


def _core_loop(
    lg: LocalGraph,
    ub: np.ndarray,
    lb: np.ndarray,
    k: int | None,
    T: int,
    fast_verify: bool,
    st: dict,
) -> list[LhCDS]:
    """The Algorithm-6 loop over a prepared LocalGraph + bounds.

    ``ub`` and ``lb`` are float arrays indexed by vertex position; the
    queued candidates are sets of vertex ids.
    """
    p = lg.p
    ids = lg.vertices
    results: list[LhCDS] = []
    out_exact: dict[int, Fraction] = {}  # output vertex -> exact phi (Thm 1)
    # reduced DeriveCompact problem -> its min-cut side; M is a pure
    # function of the key, so near-tied candidates share one flow
    compact_memo: dict = {}
    st.setdefault("t_propose", 0.0)
    st.setdefault("t_prune", 0.0)
    st.setdefault("t_verify", 0.0)

    def propose_sub(work: np.ndarray, cap: float) -> list[tuple[set[int], float]]:
        """ProposeCL + Prune over the positions ``work`` (the whole graph,
        then candidates).

        ``cap`` is the parent candidate's density cap; any LhCDS D inside a
        sub-stable-group has density d(D) = phi^{G[work]}(D) <= the group's
        max r (Theorems 1+4 applied to CP(G[work], h)), so the child's cap
        is min(cap, group max r) — valid even though subgraph *vertex* upper
        bounds are not globally valid.
        """
        tp = time.perf_counter()
        inside = np.zeros(lg.n, dtype=bool)
        inside[work] = True
        verts, inst = lg.sub_instances(lg.rows_within(inside))
        if not len(verts):
            return []
        alpha, r0 = fw_local(inst, T)
        pieces, r = tentative_gd_local(inst, alpha, r0)
        groups = [(verts[m], gmin, gmax) for m, gmin, gmax in derive_stable_groups(pieces, r)]
        for members, gmin, _gmax in groups:
            lb[members] = np.maximum(lb[members], gmin - TOL)  # lower bounds stay global
        st["t_propose"] += time.perf_counter() - tp
        tp = time.perf_counter()
        alive = np.zeros(lg.n, dtype=bool)
        alive[prune_local(lg, work, ub, lb)] = True
        st["t_prune"] += time.perf_counter() - tp
        out = []
        for members, _gmin, gmax in groups:
            kept = members[alive[members]].tolist()
            if kept:
                out.append(({ids[x] for x in kept}, min(cap, gmax + TOL)))
        return out

    first = propose_sub(np.arange(lg.n), float("inf"))

    # max-heap of candidates keyed by cap: (-cap, seq, tight, S). A tight
    # candidate is connected and capped by a CP solution on G[S] itself or
    # by an exact split; an inherited cap is tightened before S is examined.
    heap: list[tuple[float, int, bool, set[int]]] = []
    seq = itertools.count()

    def push(S: set[int], cap: float, tight: bool) -> None:
        heapq.heappush(heap, (-cap, next(seq), tight, S))

    for S, cap in first:
        push(S, cap, False)
    top: list[Fraction] = []  # min-heap of the k best verified densities

    while heap:
        # Strict stop (invariant 3): caps carry +TOL slack, so once the top
        # cap is below the k-th density every LhCDS left in the heap is
        # strictly below it, and every tie with the k-th has been found.
        if k is not None and len(top) == k and -heap[0][0] < float(top[0]):
            break
        negcap, _, tight, S = heapq.heappop(heap)
        cap = -negcap
        if not tight:
            comps = lg.components(S)
            if len(comps) > 1:
                for c in comps:
                    push(c, cap, False)
                continue
            # Theorem 4 on CP(G[S]): any feasible r gives d(D) <= max r for
            # every D inside S, so max r caps every LhCDS inside S
            rows = lg.rows_within(lg.mask(S))
            if len(rows):
                _alpha, r = fw_local(lg.sub_instances(rows)[1], T)
                push(S, min(cap, float(r.max()) + TOL), True)
            continue
        d = candidate_density(lg, S)
        tv = time.perf_counter()
        dense_ok = is_densest(sorted(S), lg.instances_within(S), p)
        st["t_verify"] += time.perf_counter() - tv
        if dense_ok:
            tv = time.perf_counter()
            if fast_verify:
                ok = verify_fast(lg, S, ub, lb, out_exact, st, compact_memo)
            else:
                ok = verify_basic(lg, S, st)
            st["t_verify"] += time.perf_counter() - tv
            if ok:
                results.append(LhCDS(frozenset(S), d))
                if k is not None:
                    heapq.heappush(top, d)
                    if len(top) > k:
                        heapq.heappop(top)
                # Theorem 1 pins these vertices' compact numbers exactly
                out_exact.update(dict.fromkeys(S, d))
                at = lg.positions(S)
                ub[at] = np.minimum(ub[at], float(d) + TOL)
                lb[at] = np.maximum(lb[at], float(d) - TOL)
            else:
                # Discard, provably exact (invariant 2): S is connected and
                # self-densest, hence d(S)-compact; any LhCDS D inside S would
                # sit inside the strictly larger d(D)-compact graph that made
                # verification fail (it is d(S)-compact, and d(S) >= d(D)),
                # contradicting D's maximality. So S contains no LhCDS.
                st["discarded"] = st.get("discarded", 0) + 1
        else:
            subcands = propose_sub(lg.positions(S), cap)
            if len(subcands) == 1 and subcands[0][0] == S:
                # Rough FW solution failed to split a non-self-densest
                # candidate; split off the exact maximal densest subgraph D of
                # G[S] instead (one Dinkelbach run). D is the top block of the
                # exact decomposition, so every LhCDS inside S lies entirely
                # in D or entirely in S \ D, and both have density <= d(D).
                # Nothing in G[S] is denser than D, so D's components are tight.
                st["exact_splits"] = st.get("exact_splits", 0) + 1
                hyper = {inst: 1 for inst in lg.instances_within(S)}
                D, dD = densest_sub(S, hyper)
                newcap = min(cap, float(dD) + TOL)
                rest = S - D
                if rest:
                    push(rest, newcap, False)
                for c in lg.components(D):
                    push(c, newcap, True)
            else:
                for c, ccap in subcands:
                    push(c, ccap, False)

    results.sort(key=lambda r: (-r.density, sorted(r.vertices)))
    return results if k is None else results[:k]


def ippv_local(
    lg: LocalGraph,
    k: int | None = 5,
    T: int = 10,
    fast_verify: bool = True,
    stats: dict | None = None,
) -> list[LhCDS]:
    """Run the whole pipeline on a driver-side LocalGraph (with instances)."""
    check_k(k)
    st = stats if stats is not None else {}
    t0 = time.perf_counter()
    cores = instance_core_numbers_local(lg.n, lg.inst)
    ub = cores.astype(np.float64)
    lb = cores / lg.p
    st["t_bounds"] = time.perf_counter() - t0
    return _core_loop(lg, ub, lb, k, T, fast_verify, st)


def ippv_instances(
    spark: SparkSession,
    edges: DataFrame,
    instances: DataFrame,
    p: int,
    k: int | None = 5,
    T: int = 10,
    fast_verify: bool = True,
    stats: dict | None = None,
) -> list[LhCDS]:
    """IPPV over an arbitrary instance hypergraph (Algorithm 7, LhxPDS).

    Collects the canonical ``edges`` and the long ``(iid, v)`` instance
    table into a LocalGraph, then runs ``ippv_local`` on it.
    """
    check_k(k)
    st = stats if stats is not None else {}
    t0 = time.perf_counter()
    edges_pdf = edges.toPandas()
    inst_list = instances_to_local(instances)
    lg = LocalGraph(
        edges=edges_pdf[["src", "dst"]].to_numpy(dtype=np.int64), instances=inst_list, p=p
    )
    st["n"], st["m"], st["instances"] = lg.n, lg.m, len(inst_list)
    st["t_mirror"] = time.perf_counter() - t0
    return ippv_local(lg, k, T, fast_verify, st)


def ippv(
    spark: SparkSession,
    edges: DataFrame,
    h: int = 3,
    k: int | None = 5,
    T: int = 10,
    fast_verify: bool = True,
    stats: dict | None = None,
) -> list[LhCDS]:
    """Top-k LhCDS discovery (Algorithm 6). ``k=None`` finds all."""
    check_k(k)
    return ippv_instances(
        spark,
        edges,
        clique_instances(edges, h),
        p=h,
        k=k,
        T=T,
        fast_verify=fast_verify,
        stats=stats,
    )
