"""Pruning of invalid vertices (Proposition 5 / Algorithm 3).

Condition (1): a vertex v with a neighbor u whose compact-number lower
bound strictly exceeds v's upper bound cannot belong to any LhCDS
(Proposition 4). Condition (2): after removing those, any vertex whose
instance-core number in the pruned graph falls below its lower bound
would need already-pruned vertices to realize its compact subgraph, so it
is invalid too; removals cascade until fixpoint.

``prune_local`` checks condition (1) in one pass over the edges, then
runs the condition-(2) cascade with the heap-based core decomposition
(the paper treats this step as incremental per-removal updates,
Algorithm 3 line 7).

Bound comparisons leave a float tolerance in the conservative direction:
only prune when the violation is clear, never prune on noise.
"""
from __future__ import annotations

from ..graphs.cores import instance_core_numbers_local
from ..graphs.local import LocalGraph

TOL = 1e-9


def prune_local(
    lg: LocalGraph,
    work: set[int],
    ub: dict[int, float],
    lb: dict[int, float],
) -> set[int]:
    """Algorithm 3 over the vertices in ``work``; returns the survivors."""
    alive = set(work)
    removed = set()
    for u, v in lg.edges:
        if u in alive and v in alive:
            if ub.get(v, 0.0) < lb.get(u, 0.0) - TOL:
                removed.add(v)
            if ub.get(u, 0.0) < lb.get(v, 0.0) - TOL:
                removed.add(u)
    alive -= removed
    # condition (2), iterated until no vertex's core violates its lower bound
    while True:
        insts = lg.instances_within(alive)
        core = instance_core_numbers_local(sorted(alive), insts)
        bad = {u for u in alive if core.get(u, 0) < lb.get(u, 0.0) - TOL}
        if not bad:
            return alive
        alive -= bad
