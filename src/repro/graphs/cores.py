"""(k, psi_h)-core decomposition over an instance hypergraph.

The paper's Definition 5 / Algorithm 1 (InitializeBd) rest on the
h-clique-core number ``core_G(u, psi_h)``: the largest k such that u
belongs to a subgraph where every vertex is contained in >= k instances.
``instance_core_numbers_local`` computes it with the standard k-core
peeling generalized to hyperedges: a min-heap on instance degree, where
removing a vertex drops every instance it touches.
"""
from __future__ import annotations

import heapq


def instance_core_numbers_local(
    vertices: list[int], instances: list[tuple[int, ...]]
) -> dict[int, int]:
    """Exact core number per vertex (vertices with no instances get 0)."""
    inc: dict[int, list[int]] = {v: [] for v in vertices}
    for i, inst in enumerate(instances):
        for v in inst:
            inc[v].append(i)
    deg = {v: len(inc[v]) for v in vertices}
    dead_inst = [False] * len(instances)
    removed: set[int] = set()
    heap = [(d, v) for v, d in deg.items()]
    heapq.heapify(heap)
    core: dict[int, int] = {}
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in removed or d != deg[v]:
            continue
        removed.add(v)
        k = max(k, d)
        core[v] = k
        for i in inc[v]:
            if dead_inst[i]:
                continue
            dead_inst[i] = True
            for w in instances[i]:
                if w not in removed:
                    deg[w] -= 1
                    heapq.heappush(heap, (deg[w], w))
    return core
