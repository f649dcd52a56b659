"""Frank-Wolfe / SEQ-kClist++ approximation of CP(G, h) (Algorithm 2).

CP(G, h) asks every instance (h-clique or pattern occurrence) to split
its unit weight over its members so that the received totals ``r`` are as
even as possible; the optimal ``r*`` equals the h-clique compact numbers
(Theorem 2). ``fw_local`` is the paper's sequential SEQ-kClist++ with
in-pass r updates. Any iterate is a *feasible* CP solution, which is all
Theorem 4 needs, so exactness of the pipeline never depends on
convergence quality.
"""
from __future__ import annotations

import numpy as np

Instance = tuple[int, ...]


def fw_local(
    instances: list[Instance], T: int
) -> tuple[np.ndarray, dict[int, float]]:
    """The sequential SEQ-kClist++ of Algorithm 2 (lines 5-13).

    Returns ``(alpha, r)`` with ``alpha[i, j]`` the weight instance i
    assigns to its j-th member (members in tuple order).
    """
    if not instances:
        return np.zeros((0, 0)), {}
    p = len(instances[0])
    alpha = np.full((len(instances), p), 1.0 / p)
    r: dict[int, float] = {}
    for inst in instances:
        for v in inst:
            r[v] = r.get(v, 0.0) + 1.0 / p
    for t in range(1, T + 1):
        gamma = 1.0 / (t + 1)
        scale = 1.0 - gamma
        alpha *= scale
        for v in r:
            r[v] *= scale
        for i, inst in enumerate(instances):
            jmin = 0
            vmin = inst[0]
            best = r[vmin]
            for j in range(1, p):
                rv = r[inst[j]]
                if rv < best or (rv == best and inst[j] < vmin):
                    best, jmin, vmin = rv, j, inst[j]
            alpha[i, jmin] += gamma
            r[vmin] += gamma
    return alpha, r
