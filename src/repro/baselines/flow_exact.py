"""Flow-exact LhCDS baseline — the LTDS / LDSflow stand-in.

The paper's competitors solve special cases of LhCDS with maximum-flow
machinery and *without* IPPV's convex-programming bound tightening,
pruning, or reduced verification networks:

- LTDS (Samusevich et al.) solves h = 3 (triangles);
- LDSflow (Qin et al.) solves h = 2 (edges).

Our stand-in is their common skeleton, generalized to any h: compute the
exact compact numbers by the flow-based diminishingly-dense decomposition
(a long chain of full-graph max-flows), take the connected components of
each compact-number level set as candidates, and verify each with the
*full-graph* DeriveCompact network plus the IsDensest check. It is exact
(the same theorems apply) and deliberately flow-heavy — reproducing the
baselines' bottleneck that Table 3 / Figure 12 measure IPPV against.
"""
from __future__ import annotations

import time
from fractions import Fraction

from ..core.ippv import LhCDS, check_k
from ..flow.networks import derive_compact, exact_decomposition, is_densest
from ..graphs.local import LocalGraph


def flow_exact_lhcds(
    lg: LocalGraph, k: int | None = 5, stats: dict | None = None
) -> list[LhCDS]:
    """Exact top-k LhCDS by decomposition + full-graph flow verification."""
    check_k(k)
    st = stats if stats is not None else {}
    t0 = time.perf_counter()
    blocks = exact_decomposition(lg.vertices, lg.instances)
    st["t_decompose"] = time.perf_counter() - t0
    st["n_blocks"] = len(blocks)

    results: list[LhCDS] = []
    t0 = time.perf_counter()
    n_flow = 0
    for block, rho in blocks:
        if rho == 0:
            continue
        M: set[int] | None = None  # maximal rho-compact union, computed lazily
        for comp in lg.components(block):
            if Fraction(lg.instance_count(comp), len(comp)) != rho:
                continue
            if not is_densest(sorted(comp), lg.instances_within(comp), lg.p):
                continue
            if M is None:
                eps = Fraction(1, lg.n * lg.n)
                M = derive_compact(lg.vertices, lg.instances, lg.p, rho - eps)
                n_flow += 1
            if any(c == comp for c in lg.components(M)):
                results.append(LhCDS(frozenset(comp), rho))
    st["t_verify"] = time.perf_counter() - t0
    st["n_full_flows"] = n_flow
    results.sort(key=lambda r: (-r.density, sorted(r.vertices)))
    return results if k is None else results[:k]
