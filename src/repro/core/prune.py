"""Pruning of invalid vertices (Proposition 5 / Algorithm 3).

Condition (1): a vertex v with a neighbor u whose compact-number lower
bound strictly exceeds v's upper bound cannot belong to any LhCDS
(Proposition 4). Condition (2): after removing those, any vertex whose
instance-core number in the pruned graph falls below its lower bound
would need already-pruned vertices to realize its compact subgraph, so it
is invalid too; removals cascade until fixpoint.

``prune_local`` checks condition (1) in one vectorised pass over the edge
position arrays, then runs the condition-(2) cascade: each round takes
the instances inside the survivors (``LocalGraph.rows_within``) and
recomputes their core numbers with the level-batched peeling (the paper
treats this step as incremental per-removal updates, Algorithm 3 line 7).

Bound comparisons leave a float tolerance in the conservative direction:
only prune when the violation is clear, never prune on noise.
"""
from __future__ import annotations

import numpy as np

from ..graphs.cores import instance_core_numbers_local
from ..graphs.local import LocalGraph

TOL = 1e-9


def prune_local(
    lg: LocalGraph,
    work: np.ndarray,
    ub: np.ndarray,
    lb: np.ndarray,
) -> np.ndarray:
    """Algorithm 3 over the vertex positions ``work``; returns the survivors.

    ``ub`` and ``lb`` are the compact-number bounds indexed by position;
    the survivors come back as ascending positions.
    """
    alive = np.zeros(lg.n, dtype=bool)
    alive[work] = True
    both = alive[lg.eu] & alive[lg.ev]
    u, v = lg.eu[both], lg.ev[both]
    alive[v[ub[v] < lb[u] - TOL]] = False
    alive[u[ub[u] < lb[v] - TOL]] = False
    # condition (2), iterated until no vertex's core violates its lower bound
    while True:
        verts = np.flatnonzero(alive)
        index = np.cumsum(alive) - 1  # position -> index among the survivors
        core = instance_core_numbers_local(len(verts), index[lg.inst[lg.rows_within(alive)]])
        bad = verts[core < lb[verts] - TOL]
        if not len(bad):
            return verts
        alive[bad] = False
