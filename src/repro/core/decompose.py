"""Tentative graph decomposition and stable h-clique groups (Algorithm 2).

``tentative_gd_local`` implements TentativeGD: sort vertices by r
descending, cut at every prefix whose instance density dominates all
longer prefixes (the diminishingly-dense prefix partition), then reassign
the weight of every instance straddling multiple pieces to its
last-touched piece and recompute r.

``derive_stable_groups`` is DeriveSG: the sequential merge scan over the
pieces. After TentativeGD's reassignment, Definition 6's alpha conditions
(2)/(3) hold automatically for any union of consecutive pieces (all of a
straddling instance's weight sits on its last piece), so stability
reduces to condition (1): strict r-separation from everything outside.
The scan merges pieces until the suffix maximum of r drops strictly below
the current group's minimum. Separation is required to exceed a small
tolerance — floating-point noise can only *merge more* (coarser
candidates), never split a true stable group, which keeps every LhCDS
inside a single candidate (the pipeline's exactness invariant).

Theorem 4 then bounds every member's compact number in the solved
(sub)graph by the group's [min r, max r]. The minimum is a valid global
lower bound; the maximum caps the density of any LhCDS inside the group
but is not used as a vertex upper bound. The globally valid upper bounds
are the initial core bounds plus Theorem 1 pins on output vertices (see
DESIGN.md section 3).
"""
from __future__ import annotations

import numpy as np

Instance = tuple[int, ...]

#: minimum r-gap treated as a true separation between stable groups
SEP_TOL = 1e-9


def tentative_gd_local(
    instances: list[Instance], alpha: np.ndarray, r: dict[int, float]
) -> tuple[list[list[int]], dict[int, float]]:
    """TentativeGD; returns (ordered pieces, recomputed r)."""
    verts = sorted(r, key=lambda v: (-r[v], v))
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    cnt = np.zeros(n, dtype=np.int64)
    for inst in instances:
        cnt[max(pos[v] for v in inst)] += 1
    cum = np.cumsum(cnt)
    dens = cum / np.arange(1, n + 1)
    sufmax = np.maximum.accumulate(dens[::-1])[::-1]
    bnd = dens >= sufmax
    grp_of_pos = np.concatenate([[0], np.cumsum(bnd[:-1])])  # 0-based group ids
    grp = {v: int(grp_of_pos[pos[v]]) for v in verts}

    new_r = {v: 0.0 for v in verts}
    for i, inst in enumerate(instances):
        pmax = max(grp[v] for v in inst)
        in_p = [j for j, v in enumerate(inst) if grp[v] == pmax]
        s = sum(alpha[i, j] for j, v in enumerate(inst) if grp[v] != pmax)
        share = s / len(in_p)
        for j, v in enumerate(inst):
            if grp[v] == pmax:
                new_r[v] += alpha[i, j] + share
    n_groups = int(grp_of_pos[-1]) + 1 if n else 0
    pieces: list[list[int]] = [[] for _ in range(n_groups)]
    for v in verts:
        pieces[grp[v]].append(v)
    return pieces, new_r


def derive_stable_groups(
    pieces: list[list[int]], r: dict[int, float], tol: float = SEP_TOL
) -> list[tuple[list[int], float, float]]:
    """DeriveSG merge scan; returns stable groups as (members, min_r, max_r)."""
    if not pieces:
        return []
    gmin = [min(r[v] for v in g) for g in pieces]
    gmax = [max(r[v] for v in g) for g in pieces]
    sufmax = list(gmax)
    for i in range(len(pieces) - 2, -1, -1):
        sufmax[i] = max(sufmax[i], sufmax[i + 1])
    out: list[tuple[list[int], float, float]] = []
    i = 0
    while i < len(pieces):
        members = list(pieces[i])
        cmin, cmax = gmin[i], gmax[i]
        j = i
        while j + 1 < len(pieces) and not (sufmax[j + 1] < cmin - tol):
            j += 1
            members.extend(pieces[j])
            cmin = min(cmin, gmin[j])
            cmax = max(cmax, gmax[j])
        out.append((members, cmin, cmax))
        i = j + 1
    return out
