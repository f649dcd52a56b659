"""Greedy top-k CDS baseline (kClist++-based, no locality guarantee).

The paper's Figure-14 comparator: run kClist++ (the same batch
Frank-Wolfe IPPV proposes with) on the remaining graph, order vertices by
their received weight r, take the densest prefix as the next "densest
subgraph", remove its vertices, and repeat k times. The returned
subgraphs maximize h-clique density greedily but carry no
h-clique-compactness guarantee — they can be fragments adjacent to an
earlier output, which is exactly the failure mode the LhCDS definition
rules out.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..core.fw import fw_local
from ..core.ippv import LhCDS
from ..graphs.local import LocalGraph


def greedy_topk_cds(lg: LocalGraph, k: int = 5, T: int = 20) -> list[LhCDS]:
    """Top-k h-clique dense subgraphs, greedily, without local guarantees."""
    remaining = np.ones(lg.n, dtype=bool)
    out: list[LhCDS] = []
    for _ in range(k):
        verts, inst = lg.sub_instances(lg.rows_within(remaining))
        if not len(inst):
            break
        _alpha, r = fw_local(inst, T)
        order = np.lexsort((np.arange(len(r)), -r))
        rank = np.empty(len(r), dtype=np.int64)
        rank[order] = np.arange(len(r))
        cum = np.cumsum(np.bincount(rank[inst].max(axis=1), minlength=len(r)))
        # two prefix densities with denominators <= n differ by >= 1/n^2,
        # far above float resolution, so argmax finds the first exact maximum
        q = int(np.argmax(cum / np.arange(1, len(r) + 1)))
        sub = verts[order[: q + 1]]
        out.append(LhCDS(frozenset(lg.ids[sub].tolist()), Fraction(int(cum[q]), q + 1)))
        remaining[sub] = False
    return out
