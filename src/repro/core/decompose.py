"""Tentative graph decomposition and stable h-clique groups (Algorithm 2).

``tentative_gd_local`` implements TentativeGD on the instance matrix:
sort vertices by r descending (``lexsort``), count each instance at the
order position of its last member (``bincount`` of the row maximum),
cut at every prefix whose instance density (``cumsum`` over positions)
dominates all longer prefixes (the diminishingly-dense prefix
partition), then move the weight every instance places outside its
last-touched piece onto that piece's members, evenly, and recompute r.

``derive_stable_groups`` is DeriveSG: the sequential merge scan over the
pieces, with each piece's min and max r taken in one ``reduceat``.
After TentativeGD's reassignment, Definition 6's alpha conditions (2)/(3)
hold automatically for any union of consecutive pieces (all of a
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

#: minimum r-gap treated as a true separation between stable groups
SEP_TOL = 1e-9


def tentative_gd_local(
    inst: np.ndarray, alpha: np.ndarray, r: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """TentativeGD; returns (ordered pieces, recomputed r).

    ``inst`` is an ``(instances, p)`` matrix of vertex indices, ``alpha``
    the matching weights and ``r`` the received totals indexed by vertex
    (as ``fw_local`` returns them). Only vertices in some instance are
    placed in a piece; each piece lists its vertices by r descending, then
    index. The recomputed r has the length of ``r`` (0 off the instances).
    """
    inst = np.asarray(inst)
    r = np.asarray(r, dtype=np.float64)
    if not inst.size:
        return [], np.zeros_like(r)
    flat = inst.ravel()
    present = np.zeros(len(r), dtype=bool)
    present[flat] = True
    verts = np.flatnonzero(present)
    order = verts[np.lexsort((verts, -r[verts]))]
    rank = np.empty(len(r), dtype=np.int64)
    rank[order] = np.arange(len(order))
    cnt = np.bincount(rank[inst].max(axis=1), minlength=len(order))
    dens = np.cumsum(cnt) / np.arange(1, len(order) + 1)
    cut = dens >= np.maximum.accumulate(dens[::-1])[::-1]
    grp_of_rank = np.concatenate([[0], np.cumsum(cut[:-1])])
    grp = grp_of_rank[rank[inst]]
    last = grp == grp.max(axis=1, keepdims=True)
    share = np.where(last, 0.0, alpha).sum(axis=1) / last.sum(axis=1)
    moved = np.where(last, alpha + share[:, None], 0.0)
    new_r = np.bincount(flat, weights=moved.ravel(), minlength=len(r))
    return np.split(order, np.flatnonzero(cut[:-1]) + 1), new_r


def derive_stable_groups(
    pieces: list[np.ndarray], r: np.ndarray, tol: float = SEP_TOL
) -> list[tuple[np.ndarray, float, float]]:
    """DeriveSG merge scan; returns stable groups as (members, min_r, max_r)."""
    if not pieces:
        return []
    sizes = np.array([len(g) for g in pieces])
    starts = np.concatenate([[0], np.cumsum(sizes[:-1])])
    rv = np.asarray(r, dtype=np.float64)[np.concatenate(pieces)]
    gmin = np.minimum.reduceat(rv, starts).tolist()
    gmax = np.maximum.reduceat(rv, starts).tolist()
    sufmax = np.maximum.accumulate(gmax[::-1])[::-1].tolist()
    out: list[tuple[np.ndarray, float, float]] = []
    i = 0
    while i < len(pieces):
        cmin, cmax = gmin[i], gmax[i]
        j = i
        while j + 1 < len(pieces) and not (sufmax[j + 1] < cmin - tol):
            j += 1
            cmin = min(cmin, gmin[j])
            cmax = max(cmax, gmax[j])
        out.append((np.concatenate(pieces[i : j + 1]), cmin, cmax))
        i = j + 1
    return out
