"""(k, psi_h)-core decomposition over an instance hypergraph.

The paper's Definition 5 / Algorithm 1 (InitializeBd) rest on the
h-clique-core number ``core_G(u, psi_h)``: the largest k such that u
belongs to a subgraph where every vertex is contained in >= k instances.
``instance_core_numbers_local`` computes it by level-batched peeling:
at level k every alive vertex of instance degree <= k is removed at once,
the instances it touches die and their surviving members lose one degree
each (through the vertex -> instance CSR), and the removal repeats until
every alive vertex has degree > k. Each vertex removed at level k has core
number exactly k; the next level is the minimum degree left.
"""
from __future__ import annotations

import numpy as np

from .local import csr_gather, incidence


def instance_core_numbers_local(n: int, inst: np.ndarray) -> np.ndarray:
    """Exact core number of vertices 0..n-1 (0 for vertices in no instance).

    ``inst`` is an ``(instances, p)`` matrix of vertex indices in [0, n).
    """
    inst = np.asarray(inst)
    core = np.zeros(n, dtype=np.int64)
    if not inst.size:
        return core
    ptr, rows_of = incidence(inst, n)
    deg = np.diff(ptr)
    alive = np.ones(n, dtype=bool)
    dead = np.zeros(len(inst), dtype=bool)
    while alive.any():
        k = int(deg[alive].min())  # above every earlier level: those cascades finished
        front = np.flatnonzero(alive & (deg <= k))
        while len(front):
            core[front] = k
            alive[front] = False
            rows = np.unique(csr_gather(ptr, rows_of, front))
            rows = rows[~dead[rows]]
            dead[rows] = True
            touched, drop = np.unique(inst[rows], return_counts=True)
            deg[touched] -= drop
            front = touched[alive[touched] & (deg[touched] <= k)]
    return core
